package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/farm"
)

// metricDef describes one end-to-end metric: what BENCHMARK.json lists
// for it and what -compare judges it by.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher"; bound is the share of the base value
	// by which the metric may worsen before it counts as a regression.
	better string
	bound  float64
	// gated metrics are defined and non-zero on every workload, so the
	// driver contract line and BENCHMARK.json carry them.
	gated bool
}

// endToEnd is the full end-to-end metric list, in print order.
//
// Bounds are sized from ten runs on ten seeds per workload, twice over
// (recorded/spread.txt). BENCHMARK.json holds one bound per metric, not one
// per workload, so each covers the most volatile workload. Raw host time on
// this box moves by 20-40% with what the host's other tenants do to the
// memory system, so the gated host-time metrics are the ones normalised to
// the host's measured load latency (hostcal.go): setup_s and
// sim_cycles_per_s_norm. The raw ones are printed beside them and not gated,
// nor is the median op, which says the same as the row rate and spreads a
// little wider (each gated metric is one more that a noisy hour can push
// past its bound).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_cycles_per_s", unit: "cycles/s", better: "higher", bound: 0.25},
	{name: "sim_cycles_per_s_norm", unit: "cycles/s", better: "higher", bound: 0.25, gated: true},
	{name: "ns_per_packet", unit: "ns", better: "lower", bound: 0.25},
	{name: "op_ns_per_cycle_p50", unit: "ns", better: "lower", bound: 0.25},
	{name: "op_ns_per_cycle_p50_norm", unit: "ns", better: "lower", bound: 0.25},
	{name: "op_ns_per_cycle_hi", unit: "ns", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	// Always 0 on a healthy tree, so the contract line carries it as
	// failed/attempted instead of as a metric.
	{name: "failed_ops_frac", unit: "ratio", better: "lower", bound: 0},
	// The next three repeat exactly for a seed; their bounds are at least
	// three times how far they move from seed to seed (bursty-slo and
	// cmp-closed most: 3.0%, 2.3% and 3.4%).
	{name: "alloc_bytes_per_cycle", unit: "B", better: "lower", bound: 0.10, gated: true},
	{name: "sim_avg_latency_cycles", unit: "cycles", better: "lower", bound: 0.08, gated: true},
	{name: "sim_throughput", unit: "pkt/cycle/core", better: "higher", bound: 0.12, gated: true},
	// grid-quick only; judged against an absolute bound of 1 pp.
	{name: "sat_gain_err_pp", unit: "pp", better: "lower", bound: 1},
	// What the host was doing, not the program: reported, never judged.
	{name: "host_load_ns", unit: "ns", better: "lower", bound: math.Inf(1)},
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metric is one reported number. Q1 and Q3 are the quartiles of a
// host-time metric's samples, which -compare uses as the run's own spread.
type metric struct {
	Name  string   `json:"name"`
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	Note  string   `json:"note,omitempty"`
}

// scratchDir is the only place the harness writes besides paths named on
// the command line: one os.MkdirTemp directory, made on first use.
type scratchDir struct{ dir string }

func (s *scratchDir) path(name string) (string, error) {
	if s.dir == "" {
		d, err := os.MkdirTemp("", "photon-bench-")
		if err != nil {
			return "", fmt.Errorf("bench: scratch directory: %w", err)
		}
		s.dir = d
	}
	return filepath.Join(s.dir, name), nil
}

func (s *scratchDir) remove() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// prepared is a workload with its set-up done.
type prepared struct {
	w    workload
	seed uint64
	sz   size
	rows int // rows in the op list
	ref  reference
	warm opResult // the first op, run once untimed during set-up
	// setups are the set-up repeats' times at the nominal load latency,
	// setupsRaw as the clock read them.
	setups, setupsRaw []float64
}

// ops generates the ops of row j.
func (p *prepared) ops(j int) ([]op, error) {
	ops, err := p.w.row(p.seed, j, p.sz)
	if err != nil {
		return nil, fmt.Errorf("bench: %s row %d: %w", p.w.name, j, err)
	}
	return ops, nil
}

// prepare is the workload's set-up: generate the first row, load the
// reference, run the first op once untimed (through the farm on
// grid-quick). Everything here is counted in setup_s.
func prepare(w workload, seed uint64, sz size) (*prepared, error) {
	p := &prepared{w: w, seed: seed, sz: sz, rows: sz.rows(w)}
	var err error
	if p.ref, err = loadReference(); err != nil {
		return nil, err
	}
	ops, err := p.ops(0)
	if err != nil {
		return nil, err
	}
	if !w.grid {
		if p.warm, err = runOp(ops[0]); err != nil {
			return nil, fmt.Errorf("bench: %s warm-up op %s: %w", w.name, ops[0].key, err)
		}
		return p, nil
	}
	warm := farm.Grid{Name: "warm-up", Opts: ops[0].opts, Points: []exp.Point{ops[0].point}}
	rep, err := farm.Run(warm, farm.Config{Workers: farmWorkers})
	if err != nil {
		return nil, fmt.Errorf("bench: %s warm-up: %w", w.name, err)
	}
	if !rep.Complete() {
		return nil, fmt.Errorf("bench: %s warm-up point failed: %s", w.name, rep.Points[0].LastError)
	}
	p.warm = fromState(rep.Points[0])
	return p, nil
}

func fromState(st farm.PointState) opResult {
	return opResult{
		Digest: st.Digest, AvgLatency: st.Summary.AvgLatency, Throughput: st.Summary.Throughput,
		Offered: st.Summary.OfferedLoad, Delivered: st.Summary.Delivered,
	}
}

// setup repeats prepare — at least sz.setups times, and on until
// setupBudget is spent or maxSetups are made, so that a set-up of tens of
// milliseconds has a median as steady as one of a second — and keeps the
// last. setup_s is the median of the repeats, each expressed at the nominal
// load latency.
func setup(w workload, seed uint64, sz size) (*prepared, error) {
	var p *prepared
	var norm, raw []float64
	start := time.Now()
	before := hostLoadNs()
	for i := 0; i < sz.setups || (sz.setups > 1 && i < maxSetups && time.Since(start) < setupBudget); i++ {
		t0 := time.Now()
		q, err := prepare(w, seed, sz)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		after := hostLoadNs()
		norm, raw = append(norm, normalised(d, before, after)), append(raw, d.Seconds())
		before = after
		p = q
	}
	p.setups, p.setupsRaw = norm, raw
	return p, nil
}

const (
	setupBudget = 1500 * time.Millisecond
	maxSetups   = 15
)

// rowResult is one timed execution of one row of a workload.
type rowResult struct {
	round, index int
	ops          []op
	wall         time.Duration
	normWall     float64       // seconds: the timed calls, each at the nominal load latency
	loadNs       []float64     // the host load latency samples taken around them
	cpu          time.Duration // grid-quick: process CPU time over the row's farm.Run calls
	cycles       int64
	delivered    int64
	allocBytes   uint64
	nsPerCycle   []float64 // per op that ran
	normPerCycle []float64 // the same at the nominal load latency
	results      []opResult
	ok           []bool // per op: ran without error (its result is valid)
	failures     []string
	retries      int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRow executes row j once: serially for the point workloads, through
// farm.Run for grid-quick. Generating the ops, checking the outputs and
// the bookkeeping all happen off the clock.
func (p *prepared) runRow(round, j int, scratch *scratchDir) (rowResult, error) {
	ops, err := p.ops(j)
	if err != nil {
		return rowResult{}, err
	}
	rr := rowResult{
		round: round, index: j, ops: ops,
		results: make([]opResult, len(ops)),
		ok:      make([]bool, len(ops)),
	}
	errs := make([]error, len(ops))
	walls := make([]time.Duration, len(ops))
	norms := make([]float64, len(ops)) // seconds at the nominal load latency

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if p.w.grid {
		if err := rr.runFarm(scratch, errs, walls, norms); err != nil {
			return rr, fmt.Errorf("bench: %s: %w", p.w.name, err)
		}
	} else {
		// The host's load latency is sampled between ops, off the ops' clocks.
		before := hostLoadNs()
		rr.loadNs = append(rr.loadNs, before)
		for i, o := range ops {
			s := time.Now()
			rr.results[i], errs[i] = runOp(o)
			walls[i] = time.Since(s)
			after := hostLoadNs()
			norms[i] = normalised(walls[i], before, after)
			rr.wall += walls[i]
			rr.normWall += norms[i]
			rr.loadNs = append(rr.loadNs, after)
			before = after
		}
	}
	runtime.ReadMemStats(&m1)
	rr.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	for i, o := range ops {
		rr.cycles += o.cycles()
		if errs[i] != nil {
			rr.failures = append(rr.failures, fmt.Sprintf("%s: %v", o.key, errs[i]))
			continue
		}
		rr.ok[i] = true
		if why := o.verdict(rr.results[i]); why != "" {
			rr.failures = append(rr.failures, fmt.Sprintf("%s: %s", o.key, why))
		}
		rr.delivered += rr.results[i].Delivered
		rr.nsPerCycle = append(rr.nsPerCycle, float64(walls[i].Nanoseconds())/float64(o.cycles()))
		rr.normPerCycle = append(rr.normPerCycle, 1e9*norms[i]/float64(o.cycles()))
	}
	return rr, nil
}

// runFarm hands the row to farm.Run: farmWorkers workers, manifest in the
// scratch directory, no fsync, no resume. The row's figure grids run one
// farm.Run each, back to back, so that the host's load latency can be
// sampled between them (about once a second) — inside a farm.Run both
// cores are busy and there is nowhere to sample from.
func (rr *rowResult) runFarm(scratch *scratchDir, errs []error, walls []time.Duration, norms []float64) error {
	manifest, err := scratch.path("manifest.jsonl")
	if err != nil {
		return err
	}
	starts := make([]time.Time, len(rr.ops))
	ends := make([]time.Time, len(rr.ops))
	before := hostLoadNs()
	rr.loadNs = append(rr.loadNs, before)
	for lo := 0; lo < len(rr.ops); {
		hi := lo
		for hi < len(rr.ops) && rr.ops[hi].fig == rr.ops[lo].fig {
			hi++
		}
		g := farm.Grid{Name: rr.ops[lo].fig, Opts: rr.ops[lo].opts, Points: make([]exp.Point, hi-lo)}
		for k := range g.Points {
			i, mod := lo+k, rr.ops[lo+k].point.Mod
			g.Points[k] = rr.ops[i].point
			// Mod is the first thing exp.RunPoint calls, on the worker's
			// goroutine: the one place an outside harness can see an op start.
			g.Points[k].Mod = func(c *core.Config) {
				starts[i] = time.Now()
				if mod != nil {
					mod(c)
				}
			}
		}
		c0, t0 := cpuTime(), time.Now()
		rep, err := farm.Run(g, farm.Config{
			Workers:  farmWorkers,
			Manifest: manifest,
			PostPoint: func(st farm.PointState) {
				if st.Status == farm.StatusDone {
					ends[lo+st.Index] = time.Now()
				}
			},
		})
		wall := time.Since(t0)
		rr.cpu += cpuTime() - c0
		if err != nil {
			return err
		}
		after := hostLoadNs()
		rr.wall += wall
		rr.normWall += normalised(wall, before, after)
		rr.loadNs = append(rr.loadNs, after)
		for k, st := range rep.Points {
			i := lo + k
			rr.retries += st.Attempts - 1
			if st.Status != farm.StatusDone {
				errs[i] = fmt.Errorf("farm: point %s: %s", st.Status, st.LastError)
				continue
			}
			rr.results[i] = fromState(st)
			walls[i] = ends[i].Sub(starts[i])
			norms[i] = normalised(walls[i], before, after)
		}
		before = after
		lo = hi
	}
	return nil
}

// fingerprint folds every simulated output of the rows into one value.
func fingerprint(rows []rowResult) uint64 {
	h := fnv.New64a()
	for _, rr := range rows {
		for i, r := range rr.results {
			if rr.ok[i] {
				fmt.Fprintf(h, "%s %016x %d %x %x|", rr.ops[i].key, r.Digest, r.Delivered,
					math.Float64bits(r.AvgLatency), math.Float64bits(r.Throughput))
			}
		}
	}
	return h.Sum64()
}

// hiPercentile is the highest percentile of the usual ladder that still
// has at least ten of n samples beyond it (p90 from n = 100). Below 40
// samples no tail percentile is supported and the median is reported.
func hiPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is a workload's end-to-end result over all its rows.
type outcome struct {
	metrics     []metric
	attempted   int
	failed      int
	failures    []string
	fingerprint uint64
	// correct is false when a check on the outputs themselves failed: an
	// op failing, rounds disagreeing on a simulated value, or the first op
	// not reproducing its warm-up digest.
	correct bool
}

// summarise folds the rows a run executed into the workload's end-to-end
// metrics. Simulated metrics and allocation come from the op list's own
// rows in round 0, so they depend on the seed alone; host-time metrics are
// medians over every row run, with the quartiles as their spread.
func (p *prepared) summarise(rows []rowResult) outcome {
	out := outcome{correct: true}
	var list [][]rowResult // the op list's rows, by round
	var pooled, pooledNorm, loadNs []float64
	for _, rr := range rows {
		out.attempted += len(rr.ops)
		out.failed += len(rr.failures)
		out.failures = append(out.failures, rr.failures...)
		pooled = append(pooled, rr.nsPerCycle...)
		pooledNorm = append(pooledNorm, rr.normPerCycle...)
		loadNs = append(loadNs, rr.loadNs...)
		if rr.index < p.rows {
			for len(list) <= rr.round {
				list = append(list, nil)
			}
			list[rr.round] = append(list[rr.round], rr)
		}
	}
	out.fingerprint = fingerprint(list[0])
	var walls []float64
	for r, round := range list {
		if f := fingerprint(round); f != out.fingerprint {
			out.correct = false
			out.failures = append(out.failures, fmt.Sprintf("round %d: simulated outputs differ from round 0", r))
		}
		w := 0.0
		for _, rr := range round {
			w += rr.wall.Seconds()
		}
		walls = append(walls, w)
	}
	first := list[0][0]
	if first.ok[0] && first.results[0].Digest != p.warm.Digest {
		// Counted as one failed op: the first op re-run with the same seed
		// must reproduce the warm-up run bit for bit.
		out.failed++
		out.failures = append(out.failures, fmt.Sprintf("%s: digest %016x differs from its warm-up run %016x",
			first.ops[0].key, first.results[0].Digest, p.warm.Digest))
	}
	pooled, pooledNorm = sorted(pooled), sorted(pooledNorm)
	hiP := hiPercentile(len(pooled))

	var lat, thr, alloc, cycles float64
	n := 0
	for _, rr := range list[0] {
		alloc += float64(rr.allocBytes)
		cycles += float64(rr.cycles)
		for i, r := range rr.results {
			if rr.ok[i] {
				lat += r.AvgLatency
				thr += r.Throughput
				n++
			}
		}
	}
	if n > 0 {
		lat /= float64(n)
		thr /= float64(n)
	}

	perRow := func(f func(rowResult) float64) []float64 {
		v := make([]float64, len(rows))
		for i, rr := range rows {
			v[i] = f(rr)
		}
		return v
	}
	host := map[string][]float64{
		"setup_s":               p.setups,
		"wall_s":                walls,
		"sim_cycles_per_s":      perRow(func(rr rowResult) float64 { return float64(rr.cycles) / rr.wall.Seconds() }),
		"sim_cycles_per_s_norm": perRow(func(rr rowResult) float64 { return float64(rr.cycles) / rr.normWall }),
		"ns_per_packet": perRow(func(rr rowResult) float64 {
			return float64(rr.wall.Nanoseconds()) / math.Max(1, float64(rr.delivered))
		}),
		"ops_per_s":    perRow(func(rr rowResult) float64 { return float64(len(rr.ops)) / rr.wall.Seconds() }),
		"host_load_ns": loadNs,
	}
	for _, d := range endToEnd {
		m := metric{Name: d.name, Unit: d.unit}
		switch d.name {
		case "op_ns_per_cycle_p50":
			m.Value = percentile(pooled, 50)
			m.Note = fmt.Sprintf("n=%d", len(pooled))
		case "op_ns_per_cycle_p50_norm":
			m.Value = percentile(pooledNorm, 50)
			m.Note = fmt.Sprintf("n=%d, at %g ns a load", len(pooledNorm), nominalLoadNs)
		case "op_ns_per_cycle_hi":
			m.Value = percentile(pooled, hiP)
			m.Note = fmt.Sprintf("p%g, n=%d", hiP, len(pooled))
		case "failed_ops_frac":
			m.Value = float64(out.failed) / float64(out.attempted)
		case "alloc_bytes_per_cycle":
			// Allocation follows the packets simulated, so like the
			// simulated metrics it is taken over the op list alone.
			m.Value = alloc / cycles
		case "sim_avg_latency_cycles":
			m.Value = lat
		case "sim_throughput":
			m.Value = thr
		case "sat_gain_err_pp":
			if !p.w.grid || len(first.failures) > 0 {
				continue
			}
			v, err := satGainErr(first.ops, first.results)
			if err != nil {
				out.correct = false
				out.failures = append(out.failures, err.Error())
				continue
			}
			m.Value = v
		default:
			s := sorted(host[d.name])
			m.Value = median(s)
			q1, q3 := percentile(s, 25), percentile(s, 75)
			m.Q1, m.Q3 = &q1, &q3
			m.Note = fmt.Sprintf("n=%d", len(s))
			switch d.name {
			case "setup_s":
				m.Note += fmt.Sprintf(", at %g ns a load; as the clock read it %.6g", nominalLoadNs, median(p.setupsRaw))
			case "sim_cycles_per_s_norm":
				m.Note += fmt.Sprintf(", at %g ns a load", nominalLoadNs)
			}
		}
		out.metrics = append(out.metrics, m)
	}
	if out.failed > 0 {
		out.correct = false
	}
	return out
}
