package check

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// BenchConfig shapes the cycles/sec measurement RunBench performs for
// every registered scheme: Warmup untimed cycles to reach steady state,
// then Blocks timed blocks of Cycles each, keeping the best block (the
// standard defence against scheduler noise on shared CI machines).
type BenchConfig struct {
	Seed   uint64
	Load   float64 // injection rate per core (uniform random)
	Warmup int64
	Cycles int64
	Blocks int
}

// DefaultBench is the BENCH_core.json configuration: a moderate
// sub-saturation load with invariant checks off, matching how production
// sweeps drive the engine.
func DefaultBench(seed uint64) BenchConfig {
	return BenchConfig{Seed: seed, Load: 0.05, Warmup: 2000, Cycles: 10000, Blocks: 5}
}

// BenchPoint is one scheme's throughput measurement.
type BenchPoint struct {
	Scheme       string  `json:"scheme"`
	Family       string  `json:"family"`
	Cycles       int64   `json:"cycles"`       // per timed block
	BestSeconds  float64 `json:"best_seconds"` // fastest block
	CyclesPerSec float64 `json:"cycles_per_sec"`
	NsPerCycle   float64 `json:"ns_per_cycle"`
	// TracedNsPerCycle is the same measurement with a minimal event tap
	// armed — the marginal cost of observing the full lifecycle stream.
	// The nil-tap NsPerCycle is the baseline the perf gate compares.
	TracedNsPerCycle float64 `json:"traced_ns_per_cycle"`
}

// BenchReport is the machine-readable perf baseline (BENCH_core.json).
type BenchReport struct {
	Seed      uint64       `json:"seed"`
	Load      float64      `json:"load"`
	GoVersion string       `json:"go_version"`
	GOARCH    string       `json:"goarch"`
	Points    []BenchPoint `json:"points"`
}

// countingTap is the cheapest possible core.Tracer: it measures the pure
// emission overhead of an armed tap without the memory traffic a
// recording sink would add.
type countingTap struct{ n uint64 }

func (t *countingTap) Observe(core.Event) { t.n++ }

// benchScheme times one scheme's steady-state cycle throughput,
// optionally with a minimal tap armed, and returns the best block along
// with the protocol family name.
func benchScheme(s core.Scheme, cfg BenchConfig, traced bool) (time.Duration, string, error) {
	// Effectively unbounded window: a benchmark must never cross into the
	// drain phase.
	window := sim.Window{Warmup: 0, Measure: 1 << 40, Drain: 0}
	ncfg := core.DefaultConfig(s)
	ncfg.Seed = cfg.Seed
	ncfg.CheckInvariants = false
	net, err := core.NewNetwork(ncfg, window)
	if err != nil {
		return 0, "", fmt.Errorf("check: bench %v: %w", s, err)
	}
	if traced {
		net.SetTracer(&countingTap{})
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, cfg.Load, ncfg.Nodes, ncfg.CoresPerNode, ncfg.Seed)
	if err != nil {
		return 0, "", fmt.Errorf("check: bench %v: %w", s, err)
	}
	for i := int64(0); i < cfg.Warmup; i++ {
		inj.Tick(net)
		net.Step()
	}
	best := time.Duration(1<<63 - 1)
	for b := 0; b < cfg.Blocks; b++ {
		start := time.Now()
		for i := int64(0); i < cfg.Cycles; i++ {
			inj.Tick(net)
			net.Step()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, net.Protocol().Family, nil
}

// RunBench measures the cycle engine's throughput for every registered
// scheme, untraced and with a minimal tap armed. It is a wall-clock
// measurement, not part of the determinism battery — digests are
// unaffected by how fast cycles execute. Per-scheme measurements run on
// the shared pool (fanOut) with a single worker: timing stays strictly
// serial (no co-running scheme perturbs a block), but a panicking
// benchmark reports itself under its scheme's name instead of killing
// the whole gate.
func RunBench(cfg BenchConfig) (*BenchReport, error) {
	return runBenchWith(cfg, core.Schemes(), benchScheme)
}

// runBenchWith is RunBench with the per-scheme measurement injectable,
// so tests can prove the supervision contract: a measurement that
// panics must surface as an error naming its scheme, not kill the gate.
func runBenchWith(cfg BenchConfig, schemes []core.Scheme,
	bench func(core.Scheme, BenchConfig, bool) (time.Duration, string, error)) (*BenchReport, error) {
	name := func(s core.Scheme) string { return "bench " + s.String() }
	points, err := fanOut(schemes, 1, name, func(s core.Scheme) (BenchPoint, error) {
		best, family, err := bench(s, cfg, false)
		if err != nil {
			return BenchPoint{}, err
		}
		tracedBest, _, err := bench(s, cfg, true)
		if err != nil {
			return BenchPoint{}, err
		}
		secs := best.Seconds()
		return BenchPoint{
			Scheme:           s.String(),
			Family:           family,
			Cycles:           cfg.Cycles,
			BestSeconds:      secs,
			CyclesPerSec:     float64(cfg.Cycles) / secs,
			NsPerCycle:       secs * 1e9 / float64(cfg.Cycles),
			TracedNsPerCycle: tracedBest.Seconds() * 1e9 / float64(cfg.Cycles),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &BenchReport{
		Seed:      cfg.Seed,
		Load:      cfg.Load,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Points:    points,
	}, nil
}

// Gate compares a fresh measurement against a committed baseline report
// and returns one violation string per scheme whose nil-tap ns/cycle
// regressed beyond the tolerance band (0.25 = fail above 125% of the
// baseline). Schemes added since the baseline was recorded are violations
// too — the baseline must be regenerated to cover them — while schemes
// *removed* from the engine are ignored (the registry tests own that).
// Wall-clock comparisons across machines are inherently noisy; the gate is
// meant to run on the hardware class that recorded the baseline (CI), and
// the band absorbs ordinary scheduler jitter.
func (r *BenchReport) Gate(base *BenchReport, tolerance float64) []string {
	baseline := make(map[string]float64, len(base.Points))
	for _, p := range base.Points {
		baseline[p.Scheme] = p.NsPerCycle
	}
	var violations []string
	for _, p := range r.Points {
		want, ok := baseline[p.Scheme]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: not in the committed baseline — regenerate it (verify -bench -json)", p.Scheme))
			continue
		}
		if limit := want * (1 + tolerance); p.NsPerCycle > limit {
			violations = append(violations,
				fmt.Sprintf("%s: %.1f ns/cycle exceeds the %.1f baseline by more than %.0f%% (limit %.1f)",
					p.Scheme, p.NsPerCycle, want, tolerance*100, limit))
		}
	}
	return violations
}

// WriteJSON emits the report as indented JSON (the BENCH_core.json format).
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText emits a human-readable table.
func (r *BenchReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-18s %-18s %14s %12s %16s\n", "scheme", "family", "cycles/sec", "ns/cycle", "traced ns/cycle"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%-18s %-18s %14.0f %12.1f %16.1f\n",
			p.Scheme, p.Family, p.CyclesPerSec, p.NsPerCycle, p.TracedNsPerCycle); err != nil {
			return err
		}
	}
	return nil
}
