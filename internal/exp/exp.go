// Package exp contains the study catalog (catalog.go: one row per table,
// figure and extension study of the paper's evaluation, §V) and the
// experiment drivers its rows call. A row lists the points it reads;
// Simulate (simulate.go) runs the union of several rows' points, each
// distinct point once, and each row renders its tables from those
// results, so cmd/sweep, the benchmark harness and the tests all share
// one implementation.
//
// DESIGN.md's per-experiment index repeats the catalog; measured-vs-paper
// shapes are recorded in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"runtime/debug"
	"strconv"

	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// Options tunes experiment fidelity.
type Options struct {
	// Window is the simulation window per point.
	Window sim.Window
	// Seed drives all stochastic elements.
	Seed uint64
	// Parallel bounds concurrent simulation points (0 = GOMAXPROCS).
	Parallel int
	// Quick selects the reduced load grids used by tests and smoke runs.
	Quick bool
}

// DefaultOptions returns full-fidelity settings (tens of seconds per
// figure on a laptop).
func DefaultOptions() Options {
	return Options{Window: sim.DefaultWindow(), Seed: 1}
}

// QuickOptions returns reduced-fidelity settings for tests and CI.
func QuickOptions() Options {
	return Options{Window: sim.ShortWindow(), Seed: 1, Quick: true}
}

// Point identifies one simulated configuration of a sweep.
type Point struct {
	Scheme  core.Scheme
	Label   string
	Pattern traffic.Pattern
	Rate    float64
	// Workload, when non-empty, is a canonical workload spec (see
	// traffic.ParseWorkload) that replaces the fixed-rate Bernoulli
	// injection implied by Rate. Rate is ignored for workload points; the
	// spec string itself is the point's identity in farm manifest keys.
	Workload string
	// Mod customises the configuration (credits, setaside size, ...).
	Mod func(*core.Config)
}

// String is the point's identity in error messages and farm manifest
// keys: scheme/pattern@rate, then #label and ~workload when set. A nil
// pattern prints as "nil", so the paths that report a malformed point
// cannot themselves fault on it.
func (p Point) String() string {
	pat := "nil"
	if p.Pattern != nil {
		pat = p.Pattern.Name()
	}
	s := fmt.Sprintf("%s/%s@%s", p.Scheme, pat, strconv.FormatFloat(p.Rate, 'g', -1, 64))
	if p.Label != "" {
		s += "#" + p.Label
	}
	if p.Workload != "" {
		s += "~" + p.Workload
	}
	return s
}

// RunPoint simulates one point and returns its result.
func RunPoint(p Point, opts Options) (core.Result, error) {
	net, inj, err := buildPoint(p, opts)
	if err != nil {
		return core.Result{}, err
	}
	return inj.Run(net), nil
}

// PointPanic is a panic recovered inside one sweep point, converted into
// an ordinary error carrying the point's identity. One corrupt corner of
// a grid (an engine invariant violation, a DrainError) therefore fails
// its sweep cleanly instead of killing the whole process — the contract
// farm.Run and RunPoints both build on.
type PointPanic struct {
	Point
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PointPanic) Error() string {
	return fmt.Sprintf("exp: panic in point %s: %v", e.Point, e.Value)
}

// SafeRunPoint is RunPoint with panic containment: a panic anywhere in
// the point's construction or simulation is recovered into a *PointPanic
// error instead of unwinding the caller.
func SafeRunPoint(p Point, opts Options) (core.Result, error) {
	return safely(p, func() (core.Result, error) { return RunPoint(p, opts) })
}

// safely runs f for point p, recovering a panic into a *PointPanic.
func safely[R any](p Point, f func() (R, error)) (res R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PointPanic{Point: p, Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// RunPoints simulates points concurrently on the shared pool (each point
// is an independent network, so parallelism does not perturb determinism)
// and returns results in input order. A panic in any point is contained
// to that point and reported as its *PointPanic; with several failing
// points the lowest-index one is reported.
func RunPoints(points []Point, opts Options) ([]core.Result, error) {
	return runEach(points, opts, RunPoint)
}

// runEach is RunPoints over any per-point runner.
func runEach[R any](points []Point, opts Options, run func(Point, Options) (R, error)) ([]R, error) {
	results := make([]R, len(points))
	errs := Do(len(points), opts.Parallel, func(i int) (err error) {
		results[i], err = safely(points[i], func() (R, error) { return run(points[i], opts) })
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: point %d (%s): %w", i, points[i], err)
		}
	}
	return results, nil
}

// Replication is the aggregate of independent-seed repetitions of one
// point — simulation confidence intervals for results quoted in
// EXPERIMENTS.md.
type Replication struct {
	N          int
	Latency    stats.MeanVar
	Throughput stats.MeanVar
	DropRate   stats.MeanVar
	// Runs records each replication's seed and full result (digest
	// included), so any quoted confidence interval can cite the exact
	// reproducible runs behind it.
	Runs []ReplicateRun
}

// ReplicateRun identifies one replication: rerunning the point with Seed
// must reproduce Result bit-for-bit (same Digest).
type ReplicateRun struct {
	Seed   uint64
	Digest uint64
	Result core.Result
}

// ReplicateSeed returns the seed of replication i for a base seed. The
// derivation is injective in i (see sim.DeriveSeed): no two replications
// of one base ever share a seed, which TestReplicateSeedDerivation pins.
func ReplicateSeed(base uint64, i int) uint64 {
	return sim.DeriveSeed(base, uint64(i))
}

// Replicate runs a point n times with derived seeds and aggregates. It
// runs serially — replication is an offline confidence-interval tool.
func Replicate(p Point, n int, opts Options) (Replication, error) {
	var rep Replication
	for i := 0; i < n; i++ {
		o := opts
		o.Seed = ReplicateSeed(opts.Seed, i)
		res, err := RunPoint(p, o)
		if err != nil {
			return rep, err
		}
		rep.N++
		rep.Latency.Add(res.AvgLatency)
		rep.Throughput.Add(res.Throughput)
		rep.DropRate.Add(res.DropRate)
		rep.Runs = append(rep.Runs, ReplicateRun{Seed: o.Seed, Digest: res.Digest, Result: res})
	}
	return rep, nil
}

// Curve is one series of a latency-vs-load figure.
type Curve struct {
	Label      string
	Scheme     core.Scheme
	Loads      []float64
	Latency    []float64
	Throughput []float64
	Results    []core.Result
}

// SaturationThroughput returns the best accepted throughput along the
// curve — the "network throughput" of the paper's up-to-62% claim.
func (c Curve) SaturationThroughput() float64 {
	best := 0.0
	for _, t := range c.Throughput {
		if t > best {
			best = t
		}
	}
	return best
}

// PaperLoads returns the paper's x-axis grid for a traffic pattern
// (Figures 8 and 9 use different ranges per pattern because saturation
// points differ by ~4x between UR and TOR).
func PaperLoads(pattern string, quick bool) []float64 {
	if quick {
		switch pattern {
		case "BC":
			return []float64{0.01, 0.05, 0.09, 0.13, 0.19, 0.25}
		case "TOR":
			return []float64{0.01, 0.03, 0.05, 0.08, 0.13, 0.19}
		default:
			return []float64{0.01, 0.05, 0.11, 0.17, 0.23}
		}
	}
	switch pattern {
	case "BC":
		return []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.15, 0.19, 0.23, 0.27}
	case "TOR":
		return []float64{0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.09, 0.13, 0.19, 0.25}
	default: // UR
		return []float64{0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19, 0.21, 0.23, 0.25}
	}
}
