package main

import (
	"fmt"
	"math"
	"runtime/debug"

	"photon/internal/core"
	"photon/internal/cpu"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/sim"
	"photon/internal/trace"
	"photon/internal/traffic"
)

// farmWorkers is the worker count grid-quick runs with. It is a literal,
// not GOMAXPROCS: the box the sizes were taken on has two cores, and a
// benchmark whose parallelism follows the host cannot be compared across
// hosts.
const farmWorkers = 2

// size selects how much of each workload a run executes. Only the smoke
// size, whose numbers are never reported, differs from full.
type size struct {
	name string
	// oneSeed cuts every op list to its first row; schemes caps the scheme
	// list (0 = every scheme); windowDiv shrinks every simulation window.
	oneSeed   bool
	schemes   int
	windowDiv int64
	// grids are the quick figure grids one row of grid-quick runs.
	grids []string
	// rounds is the number of interleaved passes over the op lists when the
	// run is not time-boxed; setups the least number of times set-up is
	// repeated (a short set-up is repeated more: see setup).
	rounds, setups int
	// microReps scales the repetition counts of the layer micro-measurements;
	// nullGrid is the grid their per-point overheads are measured on.
	microReps int
	nullGrid  string
}

var (
	sizeFull  = size{name: "full", windowDiv: 1, grids: claimGrids, rounds: 3, setups: 5, microReps: 4, nullGrid: "figures"}
	sizeSmoke = size{name: "smoke", oneSeed: true, schemes: 2, windowDiv: 5, grids: claimGrids[:2],
		rounds: 2, setups: 1, microReps: 1, nullGrid: "fig8:UR"}
)

// rows is how many rows of a workload's op list the size keeps.
func (sz size) rows(w workload) int {
	if sz.oneSeed {
		return 1
	}
	return w.seeds
}

func (sz size) window(w sim.Window) sim.Window {
	return sim.Window{Warmup: w.Warmup / sz.windowDiv, Measure: w.Measure / sz.windowDiv, Drain: w.Drain / sz.windowDiv}
}

func (sz size) schemeList(all []core.Scheme) []core.Scheme {
	if sz.schemes > 0 && sz.schemes < len(all) {
		return all[:sz.schemes]
	}
	return all
}

type opKind int

const (
	kindPoint opKind = iota // exp.RunPoint
	kindSLO                 // exp.RunWorkloadSLO
	kindCMP                 // cpu.New + CMP.Run
)

// op is one simulated point: the generated input the program under test
// receives, plus the rules its output is checked against.
type op struct {
	// key identifies the op within its workload and in reference.json.
	key    string
	kind   opKind
	scheme core.Scheme
	fig    string      // grid-quick: the figure grid the point belongs to
	point  exp.Point   // kindPoint, kindSLO
	opts   exp.Options // window and seed; kindCMP uses Window{0, cycles, 0}
	app    trace.AppModel
	// subSat marks an op offered far below saturation: every measured
	// packet must deliver and accepted throughput must match offered load.
	subSat bool
}

func (o op) cycles() int64 { return o.opts.Window.Total() }

// opResult is the simulated outcome of one op — everything here is
// simulated time or a count, so it must repeat exactly for a fixed seed.
type opResult struct {
	Digest     uint64
	AvgLatency float64
	Throughput float64
	Offered    float64
	Delivered  int64
	Unfinished int64
	Replies    int64 // kindCMP only
}

func fromResult(r core.Result) opResult {
	return opResult{
		Digest: r.Digest, AvgLatency: r.AvgLatency, Throughput: r.Throughput,
		Offered: r.OfferedLoad, Delivered: r.Delivered, Unfinished: r.Unfinished,
	}
}

// cmpParams sets the closed-loop parameters exactly as exp.IPCStudy does.
func cmpParams(o op) cpu.Params {
	p := cpu.DefaultParams()
	p.Seed = o.opts.Seed + 13
	p.MissPer1kInstr = 3 * cpu.AppMissIntensity(o.app.MeanRate, p.IssueWidth)
	p.Burstiness = o.app.Burstiness
	p.MeanBurst = o.app.MeanBurst
	p.PhaseSync = o.app.PhaseSync
	return p
}

// baseConfig is the configuration users get for the op's scheme, before
// the point's Mod: what exp.RunPoint and exp.IPCStudy both start from.
func baseConfig(o op) core.Config {
	cfg := core.DefaultConfig(o.scheme)
	cfg.Seed = o.opts.Seed
	return cfg
}

// runOp executes one op through the highest-level public entry a user
// would call. A panic (DrainError, invariant violation) is returned as
// the op's error so one bad op is counted, not fatal.
func runOp(o op) (r opResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()
	switch o.kind {
	case kindSLO:
		slo, err := exp.RunWorkloadSLO(o.point, o.opts)
		if err != nil {
			return opResult{}, err
		}
		return fromResult(slo.Result), nil
	case kindCMP:
		net, err := core.NewNetwork(baseConfig(o), o.opts.Window)
		if err != nil {
			return opResult{}, err
		}
		m, err := cpu.New(cmpParams(o), net)
		if err != nil {
			return opResult{}, err
		}
		out := m.Run(o.opts.Window.Measure)
		r = fromResult(out.NetResult)
		r.Replies = out.Replies
		return r, nil
	default:
		res, err := exp.RunPoint(o.point, o.opts)
		if err != nil {
			return opResult{}, err
		}
		return fromResult(res), nil
	}
}

// verdict applies the op's output rules; "" means the op passed.
func (o op) verdict(r opResult) string {
	if o.subSat {
		if r.Unfinished > 0 {
			return fmt.Sprintf("%d measured packets unfinished below saturation", r.Unfinished)
		}
		if math.Abs(r.Throughput-r.Offered) > 0.03*r.Offered {
			return fmt.Sprintf("throughput %.5f more than 3%% from offered load %.5f", r.Throughput, r.Offered)
		}
	}
	if o.kind == kindCMP && r.Replies == 0 {
		return "closed loop completed no memory transaction"
	}
	return ""
}

// workload is one named set of inputs: rows of ops, one row per seed
// index, each row holding every scheme (and app) once. Rows beyond the
// list's own are what a time-boxed run goes on to when it has time left,
// so no op is ever timed twice.
type workload struct {
	name string
	// loop states whether load is open (injected on a schedule regardless
	// of the network) or closed (each core waits for its replies).
	loop string
	why  string
	// seeds is the number of rows in the workload's op list. The simulated
	// metrics are taken over exactly these rows, however many more a run
	// has time for.
	seeds int
	// row generates the ops of seed index j from the workload seed.
	row func(seed uint64, j int, sz size) ([]op, error)
	// grid marks grid-quick, whose row is figure grids that farm.Run
	// executes on farmWorkers workers; every other row runs serially.
	grid bool
}

// urSatRates are literal per-scheme rates at about 0.9x each scheme's
// uniform-random saturation. Literals, so that a change to the analytical
// twin cannot move the load this workload offers.
var urSatRates = map[core.Scheme]float64{
	core.TokenChannel:   0.093,
	core.TokenSlot:      0.167,
	core.GHS:            0.060,
	core.GHSSetaside:    0.106,
	core.DHS:            0.095,
	core.DHSSetaside:    0.180,
	core.DHSCirculation: 0.180,
}

// burstySpec is the `bursty` preset of internal/traffic, written out so a
// change to the preset table cannot move this workload.
const burstySpec = "burst(rate=0.3,on=400,off=1200)"

// pointRow returns a row generator: one op per scheme. Every op draws its
// own seed from the workload seed — ops that shared one would see the
// same traffic, and a row's metrics would then swing with that one draw.
func pointRow(win sim.Window, kind opKind, subSat bool, point func(core.Scheme) exp.Point) func(uint64, int, size) ([]op, error) {
	return func(seed uint64, j int, sz size) ([]op, error) {
		all := core.Schemes()
		var ops []op
		for i, s := range sz.schemeList(all) {
			ops = append(ops, op{
				key:    fmt.Sprintf("%s/s%d", s, j),
				kind:   kind,
				scheme: s,
				point:  point(s),
				opts:   exp.Options{Window: sz.window(win), Seed: sim.DeriveSeed(seed, uint64(j*len(all)+i))},
				subSat: subSat,
			})
		}
		return ops, nil
	}
}

// cmpSchemes and cmpApps pick the closed-loop corner: both baselines with
// their setaside handshake counterparts, over four spread-out benchmarks.
var (
	cmpSchemes = []core.Scheme{core.TokenChannel, core.GHSSetaside, core.TokenSlot, core.DHSSetaside}
	cmpApps    = []int{0, 4, 8, 12}
)

func cmpRow(seed uint64, j int, sz size) ([]op, error) {
	apps := trace.Apps()
	perRow := len(cmpSchemes) * len(cmpApps)
	var ops []op
	for _, s := range sz.schemeList(cmpSchemes) {
		for _, a := range cmpApps {
			ops = append(ops, op{
				key:    fmt.Sprintf("%s/%s/s%d", s, apps[a].Name, j),
				kind:   kindCMP,
				scheme: s,
				opts:   exp.Options{Window: sz.window(sim.Window{Measure: 6000}), Seed: sim.DeriveSeed(seed, uint64(j*perRow+len(ops)))},
				app:    apps[a],
			})
		}
	}
	return ops, nil
}

var ur = traffic.UniformRandom{}

var workloads = []workload{
	{
		name: "ur-low", loop: "open", seeds: 16,
		why: "Uniform random far below saturation: per-cycle fixed costs (injection draws, idle token scans) dominate, so arrival-driven injection must show here.",
		row: pointRow(sim.Window{Warmup: 1000, Measure: 4000, Drain: 1000}, kindPoint, true,
			func(s core.Scheme) exp.Point { return exp.Point{Scheme: s, Pattern: ur, Rate: 0.05} }),
	},
	{
		name: "ur-sat", loop: "open", seeds: 16,
		why: "Uniform random at 0.9x each scheme's saturation: per-packet protocol work dominates, so it bypasses injection changes and targets the core hot loop.",
		row: pointRow(sim.Window{Warmup: 1000, Measure: 4000, Drain: 1000}, kindPoint, false,
			func(s core.Scheme) exp.Point { return exp.Point{Scheme: s, Pattern: ur, Rate: urSatRates[s]} }),
	},
	{
		name: "ring256-mid", loop: "open", seeds: 8,
		why: "The only workload on 256 nodes and 1024 cores: prices a 64-node-only trick and the single multi-word scan path on the larger ring.",
		row: pointRow(sim.Window{Warmup: 250, Measure: 1000, Drain: 250}, kindPoint, true,
			func(s core.Scheme) exp.Point {
				return exp.Point{Scheme: s, Pattern: ur, Rate: 0.05, Mod: func(c *core.Config) { c.Nodes = 256 }}
			}),
	},
	{
		name: "bursty-slo", loop: "open", seeds: 3,
		why: "Bursty arrivals with the streaming span assembler armed: tracer and histogram work dominates, so telemetry changes show here and nowhere else.",
		row: pointRow(sim.Window{Warmup: 500, Measure: 2500, Drain: 500}, kindSLO, false,
			func(s core.Scheme) exp.Point { return exp.Point{Scheme: s, Pattern: ur, Workload: burstySpec} }),
	},
	{
		name: "cmp-closed", loop: "closed", seeds: 6,
		why: "MSHR-limited cores with request and reply classes drive the network without the traffic layer, so injection-only gains predict no change here.",
		row: cmpRow,
	},
	{
		name: "grid-quick", loop: "open", seeds: 3,
		why: "Quick figure grids through the sweep farm on two workers: many short points incl. past saturation, so per-point construction, drain and supervision count.",
		row: gridRow, grid: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// claimGrids are the four quick figure grids the saturation-gain claims
// of results/claims.txt are computed from (77 points), UR first.
var claimGrids = []string{"fig8:UR", "fig9:UR", "fig8:BC", "fig9:BC"}

// gridRow is grid-quick's input: the claim grids one after another, each op
// remembering the figure grid it came from; runFarm gives each figure grid
// its own farm.Run.
// Row j shifts the seed by j, so row 0 at seed 1 is exp.QuickOptions()
// exactly. The whole `figures` grid (249 points) would be one 13 s sample
// a run; three rows of the grids the accuracy metric needs anyway are the
// same kind of points and give a run a median to report. The farm's own
// keys embed the grid index, so ops are keyed by what the point is instead.
func gridRow(seed uint64, j int, sz size) ([]op, error) {
	opts := exp.QuickOptions()
	opts.Seed = seed + uint64(j)
	opts.Window = sz.window(opts.Window)
	var ops []op
	for _, n := range sz.grids {
		sub, err := farm.Build(n, opts)
		if err != nil {
			return nil, err
		}
		for _, p := range sub.Points {
			ops = append(ops, op{
				key:    fmt.Sprintf("%s/%s/%s/%g/s%d", n, p.Scheme, p.Label, p.Rate, j),
				kind:   kindPoint,
				scheme: p.Scheme,
				fig:    n,
				point:  p,
				opts:   opts,
			})
		}
	}
	return ops, nil
}

// claimedGains are the full-fidelity saturation gains recorded in
// results/claims.txt, in percent, recomputed from its four-digit
// throughputs (the file prints them rounded: +13/+10 and +88/+12).
var claimedGains = map[string][2]float64{
	"UR": {100 * (0.1166 - 0.1034) / 0.1034, 100 * (0.2042 - 0.1856) / 0.1856},
	"BC": {100 * (0.2500 - 0.1333) / 0.1333, 100 * (0.2500 - 0.2222) / 0.2222},
}

// satGainErr is the accuracy metric: the largest absolute difference, in
// percentage points, between the saturation gains one grid row measured
// (best GHS variant over Token Channel, best DHS variant over Token Slot,
// on UR and BC) and the claimed ones. The smoke grid holds UR only.
func satGainErr(ops []op, results []opResult) (float64, error) {
	worst := 0.0
	for pat, claimed := range claimedGains {
		for gi, fig := range []string{"fig8:", "fig9:"} {
			baseline := core.TokenChannel
			if gi == 1 {
				baseline = core.TokenSlot
			}
			var base, best float64
			for i, o := range ops {
				if o.fig != fig+pat {
					continue
				}
				if t := results[i].Throughput; o.scheme == baseline {
					base = math.Max(base, t)
				} else {
					best = math.Max(best, t)
				}
			}
			if base == 0 && best == 0 && pat != "UR" {
				continue
			}
			if base == 0 || best == 0 {
				return 0, fmt.Errorf("grid has no %s%s saturation points", fig, pat)
			}
			worst = math.Max(worst, math.Abs(100*(best-base)/base-claimed[gi]))
		}
	}
	return worst, nil
}
