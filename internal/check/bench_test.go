package check

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"photon/internal/core"
)

// TestBenchTapOverheadGuard is the tentpole's zero-overhead guard: a nil
// tap must cost nothing measurable on the hot path, and an armed minimal
// tap must stay within a small factor. Wall-clock comparisons on shared
// CI machines are noisy, so the factors are deliberately lenient — this
// is a tripwire for gross regressions (a tap check landing inside the
// token-scan inner loop), not a microbenchmark. Skipped under -short and
// under the race detector's ~10x slowdown.
func TestBenchTapOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock guard skipped under the race detector")
	}
	cfg := DefaultBench(1)
	cfg.Warmup, cfg.Cycles, cfg.Blocks = 500, 2000, 3
	rep, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if p.TracedNsPerCycle > p.NsPerCycle*2.0 {
			t.Errorf("%s: armed tap %.1f ns/cycle vs nil tap %.1f — more than 2x",
				p.Scheme, p.TracedNsPerCycle, p.NsPerCycle)
		}
	}

	// Against the checked-in baseline: the nil-tap engine must stay within
	// a generous envelope of BENCH_core.json (different machines and CPU
	// contention make tight bounds meaningless; 5x catches an accidental
	// always-on tracing path).
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatalf("reading BENCH_core.json baseline: %v", err)
	}
	var base BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing BENCH_core.json: %v", err)
	}
	baseline := map[string]float64{}
	for _, p := range base.Points {
		baseline[p.Scheme] = p.NsPerCycle
	}
	for _, p := range rep.Points {
		want, ok := baseline[p.Scheme]
		if !ok {
			t.Errorf("%s: missing from BENCH_core.json baseline", p.Scheme)
			continue
		}
		if p.NsPerCycle > want*5.0 {
			t.Errorf("%s: %.1f ns/cycle is more than 5x the %.1f baseline",
				p.Scheme, p.NsPerCycle, want)
		}
	}
}

// TestBenchPanicNamesScheme: RunBench runs its per-scheme measurements
// on the shared pool with a single worker; a measurement that panics
// must come back as an error that names the offending scheme (so a CI
// bench failure is attributable at a glance), not crash the process or
// kill the sibling measurements.
func TestBenchPanicNamesScheme(t *testing.T) {
	schemes := core.Schemes()
	victim := core.DHS
	measured := map[core.Scheme]bool{}
	bench := func(s core.Scheme, cfg BenchConfig, traced bool) (time.Duration, string, error) {
		if s == victim {
			panic("synthetic bench failure")
		}
		measured[s] = true
		return time.Millisecond, s.Family(), nil
	}
	_, err := runBenchWith(DefaultBench(1), schemes, bench)
	if err == nil {
		t.Fatal("runBenchWith swallowed a panicking benchmark")
	}
	if !strings.Contains(err.Error(), victim.String()) {
		t.Fatalf("error %q does not name the panicking scheme %q", err, victim)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error %q does not surface the panic", err)
	}
	// Single-worker supervision runs jobs independently: schemes ordered
	// before the victim must still have been measured.
	for _, s := range schemes {
		if s == victim {
			break
		}
		if !measured[s] {
			t.Errorf("scheme %s before the victim was not measured", s)
		}
	}
}

// TestBenchReportShape: the injectable measurement path fills the same
// report fields the real benchmark does.
func TestBenchReportShape(t *testing.T) {
	bench := func(s core.Scheme, cfg BenchConfig, traced bool) (time.Duration, string, error) {
		d := 10 * time.Millisecond
		if traced {
			d = 12 * time.Millisecond
		}
		return d, s.Family(), nil
	}
	cfg := DefaultBench(7)
	rep, err := runBenchWith(cfg, core.Schemes(), bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(core.Schemes()) {
		t.Fatalf("%d points, want %d", len(rep.Points), len(core.Schemes()))
	}
	for _, p := range rep.Points {
		if p.NsPerCycle <= 0 || p.TracedNsPerCycle <= p.NsPerCycle {
			t.Errorf("%s: ns/cycle %.1f traced %.1f inconsistent with the injected timings",
				p.Scheme, p.NsPerCycle, p.TracedNsPerCycle)
		}
		if p.Family == "" {
			t.Errorf("%s: missing family", p.Scheme)
		}
	}
}
