package check

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/traffic"
)

// The golden-digest regression tests pin the behavioural fingerprint of
// every point of the quick standard, chaos and workload batteries (and of
// the slo and wide-ring grids) as testdata, so a plain `go test ./...`
// fails on any engine divergence — EXPERIMENTS.md records the same
// digests for humans, but only these files make them binding.
//
// Regenerate after an *intentional* behaviour change with:
//
//	go test ./internal/check -run TestGolden -update
//
// and justify the diff in the commit message; a raw-speed change must
// never need it.

var updateGolden = flag.Bool("update", false, "rewrite golden digest testdata")

// goldenPoint is one pinned digest. Case is the traffic pattern for
// quick-grid points and the fault class for chaos points.
type goldenPoint struct {
	Scheme string  `json:"scheme"`
	Case   string  `json:"case"`
	Rate   float64 `json:"rate"`
	Digest string  `json:"digest"`
}

func (p goldenPoint) key() string {
	return fmt.Sprintf("%s/%s@%g", p.Scheme, p.Case, p.Rate)
}

// goldenBatteryPoints replays every point of b's quick grid once, with
// the jobs and tapes the battery's own builder makes, and keys each
// digest by caseOf(point) — the battery's per-point digests without its
// repeat runs and cross checks, so the golden sweep stays test-suite
// cheap while guarding the tape seeds, point order and filters the
// battery actually runs.
func goldenBatteryPoints(t *testing.T, b *Battery, seed uint64, caseOf func(Point) (string, float64)) []goldenPoint {
	t.Helper()
	g := b.Grid(true)
	_, jobs, err := b.jobs(g, seed)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]goldenPoint, len(jobs))
	runGoldenJobs(t, len(jobs), func(i int) error {
		j := jobs[i]
		res, _, err := replay(j.config(seed, g.Window), g.Window, j.tape)
		if err != nil {
			return err
		}
		name, rate := caseOf(j.Point)
		points[i] = goldenPoint{
			Scheme: j.Scheme.String(),
			Case:   name,
			Rate:   rate,
			Digest: fmt.Sprintf("%016x", res.Digest),
		}
		return nil
	})
	return points
}

// goldenQuickPoints: the quick standard battery, keyed by pattern and load.
func goldenQuickPoints(t *testing.T, seed uint64) []goldenPoint {
	return goldenBatteryPoints(t, standardBattery, seed, func(p Point) (string, float64) { return p.Pattern.Name(), p.Rate })
}

// goldenChaosPoints: the quick chaos battery, keyed by fault class and rate.
func goldenChaosPoints(t *testing.T, seed uint64) []goldenPoint {
	return goldenBatteryPoints(t, chaosBattery, seed, func(p Point) (string, float64) { return p.Class.String(), p.FaultRate })
}

// goldenWorkloadPoints: the quick workload battery, keyed by preset.
func goldenWorkloadPoints(t *testing.T, seed uint64) []goldenPoint {
	return goldenBatteryPoints(t, workloadBattery, seed, func(p Point) (string, float64) { return p.Workload.Name, 0 })
}

// goldenSLOPoints reproduces the per-point digests of the "slo" workload
// grid (every preset workload under every scheme) exactly as
// `sweep -farm slo -quick` runs them: quick options, the grid's own
// deterministic order, the preset name as the case key.
func goldenSLOPoints(t *testing.T, seed uint64) []goldenPoint {
	t.Helper()
	opts := exp.QuickOptions()
	opts.Seed = seed
	grid, err := exp.FigurePoints("slo", opts)
	if err != nil {
		t.Fatalf("building slo grid: %v", err)
	}
	points := make([]goldenPoint, len(grid))
	runGoldenJobs(t, len(grid), func(i int) error {
		res, err := exp.RunPoint(grid[i], opts)
		if err != nil {
			return err
		}
		points[i] = goldenPoint{
			Scheme: grid[i].Scheme.String(),
			Case:   grid[i].Label,
			Digest: fmt.Sprintf("%016x", res.Digest),
		}
		return nil
	})
	return points
}

// goldenWidePoints runs every distributed scheme on rings wider than one
// want-mask word (128 and 256 nodes; uniform random at 0.05, quick
// window). The case key names the node count.
func goldenWidePoints(t *testing.T, seed uint64) []goldenPoint {
	t.Helper()
	opts := exp.QuickOptions()
	opts.Seed = seed
	const rate = 0.05
	var grid []exp.Point
	for _, nodes := range []int{128, 256} {
		nodes := nodes
		for _, s := range core.DistributedGroup() {
			grid = append(grid, exp.Point{
				Scheme: s, Label: fmt.Sprintf("UR/n%d", nodes), Pattern: traffic.UniformRandom{}, Rate: rate,
				Mod: func(c *core.Config) { c.Nodes = nodes },
			})
		}
	}
	points := make([]goldenPoint, len(grid))
	runGoldenJobs(t, len(grid), func(i int) error {
		res, err := exp.RunPoint(grid[i], opts)
		if err != nil {
			return err
		}
		points[i] = goldenPoint{
			Scheme: grid[i].Scheme.String(),
			Case:   grid[i].Label,
			Rate:   rate,
			Digest: fmt.Sprintf("%016x", res.Digest),
		}
		return nil
	})
	return points
}

// runGoldenJobs fans n independent point runs over the shared pool
// (GOMAXPROCS workers, panics contained into error slots).
func runGoldenJobs(t *testing.T, n int, run func(i int) error) {
	t.Helper()
	for i, err := range exp.Do(n, 0, run) {
		if err != nil {
			t.Fatalf("golden point %d: %v", i, err)
		}
	}
}

// checkGolden compares computed points against the named testdata file,
// rewriting it under -update.
func checkGolden(t *testing.T, file string, got []goldenPoint) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		t.Logf("rewrote %s with %d points", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create it): %v", path, err)
	}
	var want []goldenPoint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	wantByKey := make(map[string]goldenPoint, len(want))
	for _, p := range want {
		wantByKey[p.key()] = p
	}
	if len(got) != len(want) {
		t.Errorf("%s pins %d points, sweep produced %d (grid changed? rerun with -update and justify)",
			file, len(want), len(got))
	}
	for _, g := range got {
		w, ok := wantByKey[g.key()]
		if !ok {
			t.Errorf("%s: no pinned digest for %s", file, g.key())
			continue
		}
		if g.Digest != w.Digest {
			t.Errorf("%s: digest diverged: got %s, pinned %s — the engine's behaviour changed",
				g.key(), g.Digest, w.Digest)
		}
	}
}

// TestGoldenQuickGridDigests pins every (scheme, pattern, load) digest of
// the quick battery grid. Any cycle-timing or event-stream change in the
// engine fails here before it can reach cmd/verify.
func TestGoldenQuickGridDigests(t *testing.T) {
	checkGolden(t, "golden_quick.json", goldenQuickPoints(t, 1))
}

// TestGoldenChaosDigests pins every (scheme, fault class, rate) digest of
// the chaos battery: the fault schedule, recovery timers and watchdogs
// are all cycle-exact, so any drift in the recovery path fails here.
func TestGoldenChaosDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos golden sweep skipped in -short mode")
	}
	checkGolden(t, "golden_chaos.json", goldenChaosPoints(t, 1))
}

// TestGoldenWorkloadDigests pins every (scheme, preset workload) digest
// of the quick workload battery, whose tapes differ from the "slo" grid's
// (battery tape seeds, a 300/1200/1000 window).
func TestGoldenWorkloadDigests(t *testing.T) {
	checkGolden(t, "golden_workloads.json", goldenWorkloadPoints(t, 1))
}

// TestGoldenSLODigests pins every (scheme, preset workload) digest of the
// "slo" grid — the workload grid PR 9 registered outside the pinned
// figures union. Non-stationary arrival schedules (burst phase cuts,
// flash plateaus, diurnal ramps) are cycle-exact, so any drift in the
// workload layer's phase arithmetic fails here.
func TestGoldenSLODigests(t *testing.T) {
	if testing.Short() {
		t.Skip("slo golden sweep skipped in -short mode")
	}
	checkGolden(t, "golden_slo.json", goldenSLOPoints(t, 1))
}

// TestGoldenWideRingDigests pins one digest per distributed scheme at
// 128 and 256 nodes — the rings whose slot-capture scan spans more than
// one want-mask word, which no 64-node golden reaches.
func TestGoldenWideRingDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-ring golden sweep skipped in -short mode")
	}
	checkGolden(t, "golden_wide.json", goldenWidePoints(t, 1))
}
