package check

import (
	"cmp"
	"fmt"
	"reflect"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/fault"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// Drive is the offered traffic of a point: Pattern at Rate, or, when
// Workload names a preset, that preset's phased schedule with Pattern
// drawing the destinations.
type Drive struct {
	Pattern  traffic.Pattern
	Rate     float64
	Workload traffic.WorkloadPreset
}

// workload is the drive's injection schedule (a fixed-rate drive is the
// one-phase Bernoulli workload).
func (d Drive) workload() (*traffic.Workload, error) {
	if d.Workload.Spec == "" {
		return traffic.Bernoulli(d.Rate), nil
	}
	return traffic.ParseWorkload(d.Workload.Spec)
}

// record records the drive's tape over the window's injection span.
func (d Drive) record(seed uint64, w sim.Window) (*traffic.Tape, error) {
	wl, err := d.workload()
	if err != nil {
		return nil, err
	}
	cfg := Point{}.config(seed, w) // the ring's size does not depend on the scheme
	return traffic.RecordWorkloadTape(wl, d.Pattern, cfg.Nodes, cfg.CoresPerNode, seed, w.Warmup+w.Measure)
}

func (d Drive) name() string {
	if d.Workload.Name != "" {
		return d.Workload.Name
	}
	return fmt.Sprintf("%s@%.3f", d.Pattern.Name(), d.Rate)
}

// Point is one verification point: a scheme under a drive, with one
// fault class armed at FaultRate (recovery on) when FaultRate > 0, or a
// twin anchor at utilisation Util of the scheme's twin-estimated
// saturation rate.
type Point struct {
	Scheme core.Scheme
	Drive
	Class     fault.Class
	FaultRate float64
	Util      float64
}

// name is the point's identity within its battery: the most specific
// axis it sits on.
func (p Point) name() string {
	switch {
	case p.Util > 0:
		return fmt.Sprintf("U=%.2f@%.4f", p.Util, p.Rate)
	case p.FaultRate > 0:
		return fmt.Sprintf("%s@%.3f", p.Class, p.FaultRate)
	}
	return p.Drive.name()
}

// config is the one place a point becomes a network configuration: the
// paper's defaults for its scheme at the run seed, plus its fault class
// when it has one.
func (p Point) config(seed uint64, w sim.Window) core.Config {
	cfg := core.DefaultConfig(p.Scheme)
	cfg.Seed = seed
	if p.FaultRate > 0 {
		arm(&cfg, w)
		cfg.Fault = cfg.Fault.SetClass(p.Class, fault.ClassConfig{Rate: p.FaultRate, Burst: 2})
	}
	return cfg
}

// arm enables the fault injector with every rate at zero and turns
// recovery on. Faults fire only after warmup: steady state degrades,
// startup doesn't.
func arm(cfg *core.Config, w sim.Window) {
	cfg.Fault = fault.Config{Enabled: true, Warmup: w.Warmup}
	cfg.Recovery.Enabled = true
}

// Grid is a battery's point grid: the cross product of its axes with the
// drive outermost, then scheme, fault class (skipping a class the scheme
// lacks the hardware for), fault rate and utilisation. An empty axis
// contributes one zero value. Window is every run's simulation window;
// DrainLimit bounds the post-window drain before the final audit (past
// saturation the backlog never reaches zero, and the audit's identities
// hold regardless).
type Grid struct {
	Drives     []Drive
	Schemes    []core.Scheme
	Classes    []fault.Class
	FaultRates []float64
	Utils      []float64
	Window     sim.Window
	DrainLimit int64
}

// points expands the grid in battery order.
func (g Grid) points() []Point {
	var ps []Point
	for _, d := range orZero(g.Drives) {
		for _, s := range g.Schemes {
			for _, cl := range orZero(g.Classes) {
				if !classApplies(s, cl) {
					continue
				}
				for _, fr := range orZero(g.FaultRates) {
					for _, u := range orZero(g.Utils) {
						ps = append(ps, Point{Scheme: s, Drive: d, Class: cl, FaultRate: fr, Util: u})
					}
				}
			}
		}
	}
	return ps
}

func orZero[T any](axis []T) []T {
	if len(axis) == 0 {
		return make([]T, 1)
	}
	return axis
}

// Battery is one row of the verification table: its name (the verify
// mode and the -json battery), its table layout, its quick and full
// grids, the check every point gets and the cross checks over the whole
// run. Adding a battery is adding a row.
type Battery struct {
	name, title string
	headers     []string
	// salt offsets the tape seeds: drive i's tape is recorded at
	// sim.DeriveSeed(seed, salt+i).
	salt  uint64
	grid  func(quick bool) Grid
	check func(r *run, j job) (Result, error)
	cross func(r *run, points []Result) ([]Check, error)
	row   func(Result) []any
}

var batteries = []*Battery{standardBattery, chaosBattery, workloadBattery, twinBattery}

// Lookup returns the battery a verify mode names: standard, chaos,
// workloads or twin.
func Lookup(name string) (*Battery, error) {
	for _, b := range batteries {
		if b.name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("check: no battery %q", name)
}

// Grid returns the battery's quick (CI-sized) or full grid.
func (b *Battery) Grid(quick bool) Grid { return b.grid(quick) }

// run is one battery run: the grid, the seed and each drive's tape.
type run struct {
	Grid
	seed  uint64
	tapes []*traffic.Tape
}

// job is one point to verify, with its drive's tape.
type job struct {
	Point
	tape *traffic.Tape
}

// jobs turns the grid into jobs. Each drive's tape is recorded once and
// shared read-only by every point on that drive (the twin's grid has no
// drives, so its points have no tape).
func (b *Battery) jobs(g Grid, seed uint64) (*run, []job, error) {
	r := &run{Grid: g, seed: seed}
	for i, d := range g.Drives {
		tape, err := d.record(sim.DeriveSeed(seed, b.salt+uint64(i)), g.Window)
		if err != nil {
			return nil, nil, fmt.Errorf("check: recording %s tape: %w", d.name(), err)
		}
		r.tapes = append(r.tapes, tape)
	}
	// The drive is the outermost axis, so each drive's points are an
	// equal, contiguous run of the grid.
	ps := g.points()
	jobs := make([]job, len(ps))
	for i, p := range ps {
		jobs[i].Point = p
		if len(r.tapes) > 0 {
			jobs[i].tape = r.tapes[i*len(r.tapes)/len(ps)]
		}
	}
	return r, jobs, nil
}

// Run verifies every point of g at seed, then runs the battery's cross
// checks.
func (b *Battery) Run(g Grid, seed uint64) (*Report, error) {
	r, jobs, err := b.jobs(g, seed)
	if err != nil {
		return nil, err
	}
	points, err := fanOut(jobs, func(j job) (Result, error) { return b.check(r, j) })
	if err != nil {
		return nil, fmt.Errorf("check: %s battery: %w", b.name, err)
	}
	cross, err := b.cross(r, points)
	if err != nil {
		return nil, err
	}
	return &Report{Points: points, Cross: cross, battery: b}, nil
}

// fanOut verifies one point per job on the shared pool (GOMAXPROCS
// workers; a panicking job reports itself instead of crashing the
// battery) and returns the verdicts in job order, or the lowest-index
// error under that job's name.
func fanOut(jobs []job, verify func(job) (Result, error)) ([]Result, error) {
	points := make([]Result, len(jobs))
	errs := exp.Do(len(jobs), 0, func(i int) (err error) {
		points[i], err = verify(jobs[i])
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", jobs[i].Scheme, jobs[i].name(), err)
		}
	}
	return points, nil
}

// Check is one named verification outcome: a per-point check, or a
// cross check over the run (differential pairs, serial-vs-parallel
// sweeps, ...).
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// checked is the check named name, passing when ok; detail describes a
// failure.
func checked(name string, ok bool, detail func() string) Check {
	c := Check{Name: name, Pass: ok}
	if !ok {
		c.Detail = detail()
	}
	return c
}

// Result is one point's verdict.
type Result struct {
	Point
	// Digest is the run fingerprint; Events the protocol event count
	// folded into it.
	Digest, Events uint64
	// Acct is the ledger after the bounded post-run drain (nonzero
	// Backlog past saturation).
	Acct core.Accounting
	// Boundaries counts the schedule phase boundaries the conservation
	// auditor checked mid-run (the final post-drain audit is extra).
	Boundaries int
	// Checks are the point's checks in report order: the first failing
	// one's Detail is the point's failure line.
	Checks []Check
	// Twin is a twin point's per-phase comparison.
	Twin *TwinVerdict
}

// Pass reports whether every per-point check succeeded.
func (r Result) Pass() bool { return r.failure() == "" }

func (r Result) failure() string {
	for _, c := range r.Checks {
		if !c.Pass {
			return status(false, c.Detail)
		}
	}
	return ""
}

// marks are the point's checks as ok/FAIL table cells.
func (r Result) marks() []any {
	cells := make([]any, len(r.Checks))
	for i, c := range r.Checks {
		cells[i] = mark(c.Pass)
	}
	return cells
}

// Report is the outcome of one battery run: the per-point verdicts in
// grid order plus the cross checks.
type Report struct {
	Points []Result
	Cross  []Check

	battery *Battery
}

// Outcome is what a command needs from a battery's report.
type Outcome interface {
	Failures() []string
	Table() *stats.Table
	Summary(seed uint64) Summary
}

// Pass reports whether the whole battery is green.
func (r *Report) Pass() bool { return len(r.Failures()) == 0 }

// Failures returns every failing point and cross check, flattened into
// printable lines.
func (r *Report) Failures() []string {
	var out []string
	for _, p := range r.Points {
		if !p.Pass() {
			out = append(out, fmt.Sprintf("%s %s: %s", p.Scheme, p.name(), p.failure()))
		}
	}
	for _, c := range r.Cross {
		if !c.Pass {
			out = append(out, fmt.Sprintf("%s: %s", c.Name, c.Detail))
		}
	}
	return out
}

// Table renders the per-point verdicts for cmd/verify.
func (r *Report) Table() *stats.Table {
	t := stats.NewTable(r.battery.title, r.battery.headers...)
	for _, p := range r.Points {
		t.AddRow(r.battery.row(p)...)
	}
	return t
}

// Verdict is one line of a Summary: a point (scheme, sub-identity and
// digest) or a cross check (name only).
type Verdict struct {
	Scheme string `json:"scheme,omitempty"`
	Name   string `json:"name"`
	Digest string `json:"digest,omitempty"`
	Status string `json:"status"` // "pass" or the first failure detail
}

// Summary is the machine-readable pass/fail document of one battery run
// (`verify -json`).
type Summary struct {
	Battery string    `json:"battery"`
	Seed    uint64    `json:"seed"`
	Pass    bool      `json:"pass"`
	Points  []Verdict `json:"points"`
	Cross   []Verdict `json:"cross"`
}

// Summary condenses the report; seed is the battery's base seed.
func (r *Report) Summary(seed uint64) Summary {
	s := Summary{Battery: r.battery.name, Seed: seed, Pass: r.Pass()}
	for _, p := range r.Points {
		s.Points = append(s.Points, Verdict{
			Scheme: p.Scheme.String(), Name: p.name(),
			Digest: fmt.Sprintf("%016x", p.Digest), Status: cmp.Or(p.failure(), "pass"),
		})
	}
	for _, c := range r.Cross {
		s.Cross = append(s.Cross, Verdict{Name: c.Name, Status: status(c.Pass, c.Detail)})
	}
	return s
}

func status(pass bool, detail string) string {
	if pass {
		return "pass"
	}
	if detail == "" {
		detail = "fail"
	}
	return detail
}

func mark(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// replay runs the tape through a fresh network of the given configuration.
func replay(cfg core.Config, w sim.Window, tape *traffic.Tape) (core.Result, *core.Network, error) {
	net, err := core.NewNetwork(cfg, w)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := tape.Run(net)
	return res, net, err
}

// settle audits the network as the window left it, drains it for at most
// limit cycles and audits again: sub-saturation runs reach zero backlog,
// past-saturation runs stay backlogged, and the conservation identities
// must hold either way. It returns the final accounting, the drain's
// error and the first audit failure.
func settle(net *core.Network, limit int64) (acct core.Accounting, drainErr, auditErr error) {
	auditErr = AuditNetwork(net)
	_, drainErr = net.Drain(limit)
	if err := AuditNetwork(net); err != nil && auditErr == nil {
		auditErr = err
	}
	return net.Accounting(), drainErr, auditErr
}

// standardBattery is the determinism + conservation battery: every
// scheme over one pre-recorded tape per (pattern, rate), so cross-scheme
// comparisons are over byte-identical offered traffic. The quick grid
// puts one load well below saturation, one near it and one past it; the
// full grid is the paper's quick load grids plus a firmly
// past-saturation point.
var standardBattery = &Battery{
	name: "standard", title: "determinism + conservation battery",
	headers: []string{"scheme", "pattern", "rate", "digest", "events", "injected", "delivered", "backlog", "determ", "tape", "conserve"},
	grid: func(quick bool) Grid {
		g := Grid{Schemes: core.Schemes(), Window: sim.Window{Warmup: 300, Measure: 1000, Drain: 1000}, DrainLimit: 20_000}
		for _, pat := range traffic.PaperPatterns() {
			loads := []float64{0.02, 0.13, 0.30} // UR and BC saturate in the 0.13..0.25 region
			if pat.Name() == "TOR" {
				loads = []float64{0.02, 0.08, 0.30}
			}
			if !quick {
				loads = append(append([]float64{}, exp.PaperLoads(pat.Name(), true)...), 0.35)
			}
			for _, rate := range loads {
				g.Drives = append(g.Drives, Drive{Pattern: pat, Rate: rate})
			}
		}
		if !quick {
			g.Window, g.DrainLimit = sim.ShortWindow(), 60_000
		}
		return g
	},
	check: verifyTape,
	cross: func(r *run, points []Result) ([]Check, error) {
		cross := differentials(r, points, func(d Drive) string {
			return fmt.Sprintf("differential %s @ %.3f", d.Pattern.Name(), d.Rate)
		})
		sweeps, err := sweepChecks(r)
		return append(cross, sweeps...), err
	},
	row: func(p Result) []any {
		return append([]any{p.Scheme.String(), p.Pattern.Name(), p.Rate, fmt.Sprintf("%016x", p.Digest),
			p.Events, p.Acct.Injected, p.Acct.Delivered, p.Acct.Backlog}, p.marks()...)
	},
}

// verifyTape runs one point over its drive's tape: two replays must
// produce identical core.Result structs (determinism), a live injector
// must reproduce their digest (the tape is a faithful recording), and
// the conservation identities must hold at every schedule phase boundary
// of the live run and around the bounded post-run drain.
func verifyTape(r *run, j job) (Result, error) {
	p := Result{Point: j.Point}
	cfg := j.config(r.seed, r.Window)
	res1, _, err := replay(cfg, r.Window, j.tape)
	if err != nil {
		return p, err
	}
	res2, net, err := replay(cfg, r.Window, j.tape)
	if err != nil {
		return p, err
	}
	p.Digest, p.Events = res2.Digest, res2.DigestEvents
	determ := checked("determ", reflect.DeepEqual(res1, res2), func() string {
		return fmt.Sprintf("repeat runs diverged: digest %016x vs %016x", res1.Digest, res2.Digest)
	})

	// The live run drives the network cycle by cycle and audits it at
	// every resolved schedule boundary; the audits are read-only, so its
	// digest must still match the replays'.
	wl, err := j.workload()
	if err != nil {
		return p, err
	}
	inj, err := traffic.NewWorkloadInjector(wl, j.Pattern, cfg.Nodes, cfg.CoresPerNode, j.tape.Seed)
	if err != nil {
		return p, err
	}
	liveNet, err := core.NewNetwork(cfg, r.Window)
	if err != nil {
		return p, err
	}
	span := r.Window.Warmup + r.Window.Measure
	inj.Prepare(span)
	bounds := inj.Boundaries()
	var conserve error
	for cyc := int64(0); cyc < span; cyc++ {
		inj.Tick(liveNet)
		liveNet.Step()
		// <= rather than ==: a schedule may resolve degenerate segments to
		// zero cycles, stacking several boundaries on one cycle.
		for ; p.Boundaries < len(bounds) && bounds[p.Boundaries] <= cyc+1; p.Boundaries++ {
			if err := AuditNetwork(liveNet); err != nil && conserve == nil {
				conserve = fmt.Errorf("phase boundary %d (cycle %d): %v", p.Boundaries+1, cyc+1, err)
			}
		}
	}
	liveNet.RunCycles(r.Window.Drain)
	live := liveNet.Result().Digest
	tape := checked("tape", live == p.Digest, func() string {
		return fmt.Sprintf("live injector digest %016x != tape digest %016x", live, p.Digest)
	})

	var auditErr error
	p.Acct, _, auditErr = settle(net, r.DrainLimit)
	if conserve == nil {
		conserve = auditErr
	}
	p.Checks = []Check{determ, tape, checked("conserve", conserve == nil, func() string { return conserve.Error() })}
	return p, nil
}

// differentials is the cross-scheme check over each drive's shared tape:
// every scheme must inject exactly the tape's entries, and fully drained
// schemes must deliver exactly the same packet count.
func differentials(r *run, points []Result, name func(Drive) string) []Check {
	if len(points) == 0 || len(r.tapes) == 0 {
		return nil
	}
	var cross []Check
	per := len(points) / len(r.tapes)
	for i, tape := range r.tapes {
		group := points[i*per : (i+1)*per]
		c := Check{Name: name(r.Drives[i]), Pass: true}
		want := int64(len(tape.Entries))
		for _, v := range group {
			if v.Acct.Injected != want {
				c.Pass = false
				c.Detail = fmt.Sprintf("%s injected %d, tape holds %d entries", v.Scheme, v.Acct.Injected, want)
			}
		}
		a := group[0]
		for _, v := range group[1:] {
			if a.Acct.Backlog == 0 && v.Acct.Backlog == 0 && a.Acct.Delivered != v.Acct.Delivered {
				c.Pass = false
				c.Detail = fmt.Sprintf("%s delivered %d but %s delivered %d on the same tape",
					a.Scheme, a.Acct.Delivered, v.Scheme, v.Acct.Delivered)
			}
		}
		cross = append(cross, c)
	}
	return cross
}

// sweepChecks holds the sweep executors to the serial RunPoints on one
// representative point per pattern (its grid's median load) and scheme:
// whether worker scheduling can perturb a result does not depend on the
// offered load, and one load keeps the mandatory serial leg affordable.
//   - serial vs parallel: exp.RunPoints must be a pure function of its
//     inputs regardless of worker count.
//   - farm vs serial: the supervised sweep farm (retries, per-point
//     containment, out-of-order completion) must fold the same points
//     into the exact grid digest a serial run produces, the property
//     that makes crash/resume regeneration trustworthy.
func sweepChecks(r *run) ([]Check, error) {
	var points []exp.Point
	for i := 0; i < len(r.Drives); {
		n := i
		for n < len(r.Drives) && r.Drives[n].Pattern.Name() == r.Drives[i].Pattern.Name() {
			n++
		}
		mid := r.Drives[i+(n-i)/2]
		for _, s := range r.Schemes {
			points = append(points, exp.Point{Scheme: s, Pattern: mid.Pattern, Rate: mid.Rate})
		}
		i = n
	}
	opts := exp.Options{Window: r.Window, Seed: r.seed}
	serialOpts, parallelOpts := opts, opts
	serialOpts.Parallel = 1
	parallelOpts.Parallel = 8
	serial, err := exp.RunPoints(points, serialOpts)
	if err != nil {
		return nil, err
	}
	parallel, err := exp.RunPoints(points, parallelOpts)
	if err != nil {
		return nil, err
	}
	pc := Check{Name: "serial vs parallel RunPoints", Pass: true}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			pc.Pass = false
			pc.Detail = fmt.Sprintf("point %d (%s %s %.3f): serial digest %016x != parallel digest %016x",
				i, points[i].Scheme, points[i].Pattern.Name(), points[i].Rate,
				serial[i].Digest, parallel[i].Digest)
			break
		}
	}

	fc := Check{Name: "farm vs serial RunPoints (grid digest)", Pass: true}
	fr, err := farm.Run(farm.Grid{Name: "battery-cross", Points: points, Opts: opts}, farm.Config{Workers: 8})
	switch {
	case err != nil:
		fc.Pass = false
		fc.Detail = fmt.Sprintf("farm run failed: %v", err)
	case !fr.Complete():
		fc.Pass = false
		fc.Detail = fmt.Sprintf("farm quarantined %d of %d points", len(fr.Quarantined()), len(points))
	default:
		ds := make([]uint64, len(serial))
		for i, res := range serial {
			ds[i] = res.Digest
		}
		if want := farm.MergeDigests(ds); fr.GridDigest() != want {
			fc.Pass = false
			fc.Detail = fmt.Sprintf("farm grid digest %016x != serial %016x", fr.GridDigest(), want)
		}
	}
	return []Check{pc, fc}, nil
}
