package farm

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// SerialGridDigest runs the grid serially in a single process and merges
// the per-point digests — the reference value every farm execution of
// the same grid must reproduce.
func SerialGridDigest(g Grid) (uint64, error) {
	o := g.Opts
	o.Parallel = 1
	results, err := exp.RunPoints(g.Points, o)
	if err != nil {
		return 0, err
	}
	ds := make([]uint64, len(results))
	for i, r := range results {
		ds[i] = r.Digest
	}
	return MergeDigests(ds), nil
}

// testWindow keeps per-point runs in the low-millisecond range.
var testWindow = sim.Window{Warmup: 50, Measure: 200, Drain: 100}

// testGrid builds a small deterministic grid mixing schemes and loads.
func testGrid(n int) Grid {
	schemes := []core.Scheme{core.TokenSlot, core.DHS}
	rates := []float64{0.01, 0.02, 0.03}
	points := make([]exp.Point, n)
	for i := range points {
		points[i] = exp.Point{
			Scheme:  schemes[i%len(schemes)],
			Pattern: traffic.UniformRandom{},
			Rate:    rates[i%len(rates)],
		}
	}
	return Grid{Name: "farmtest", Points: points, Opts: exp.Options{Window: testWindow, Seed: 7}}
}

func TestRunMatchesSerialDigest(t *testing.T) {
	g := testGrid(8)
	want, err := SerialGridDigest(g)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	rep, err := Run(g, Config{Workers: 4})
	if err != nil {
		t.Fatalf("farm: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("farm grid incomplete: %+v", rep.Quarantined())
	}
	if rep.Ran != len(g.Points) || rep.Resumed != 0 {
		t.Fatalf("ran %d resumed %d, want %d/0", rep.Ran, rep.Resumed, len(g.Points))
	}
	if got := rep.GridDigest(); got != want {
		t.Fatalf("farm grid digest %016x != serial %016x", got, want)
	}
	for i, p := range rep.Points {
		if p.Status != StatusDone || p.Attempts != 1 {
			t.Fatalf("point %d: %+v", i, p)
		}
		if p.Key != g.Key(i) {
			t.Fatalf("point %d keyed %q, want %q", i, p.Key, g.Key(i))
		}
		if p.Summary.Delivered == 0 {
			t.Fatalf("point %d delivered nothing: %+v", i, p.Summary)
		}
	}
}

// TestPoisonPointRunsOnce injects an always-panicking point: it runs
// exactly once (a point is deterministic, so a retry could only replay the
// panic), ends quarantined with its key and cause, and the rest of the
// grid completes untouched.
func TestPoisonPointRunsOnce(t *testing.T) {
	g := testGrid(6)
	var runs atomic.Int32
	g.Points[2].Mod = func(*core.Config) {
		runs.Add(1)
		panic("injected poison point")
	}
	g.Points[2].Label = "poison"

	rep, err := Run(g, Config{Workers: 2})
	if err != nil {
		t.Fatalf("Run returned a harness error for a per-point failure: %v", err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("poison point ran %d times, want 1", n)
	}
	if rep.Complete() {
		t.Fatal("grid reported complete despite a poison point")
	}
	q := rep.Quarantined()
	if len(q) != 1 || q[0].Index != 2 || q[0].Attempts != 1 {
		t.Fatalf("quarantined %+v, want exactly point 2 after 1 attempt", q)
	}
	if !strings.Contains(q[0].LastError, "injected poison point") || !strings.Contains(q[0].LastError, q[0].Key) {
		t.Fatalf("quarantine error lost identity or cause: %q", q[0].LastError)
	}
	for i, p := range rep.Points {
		if i != 2 && p.Status != StatusDone {
			t.Fatalf("healthy point %d ended %s: %s", i, p.Status, p.LastError)
		}
	}
}

// TestNilPatternPointQuarantines: a point with no pattern is a per-point
// failure like any other — keyed, quarantined with the injector's error —
// not a crash while formatting its key.
func TestNilPatternPointQuarantines(t *testing.T) {
	g := testGrid(3)
	g.Points[1].Pattern = nil
	rep, err := Run(g, Config{Workers: 2})
	if err != nil {
		t.Fatalf("Run returned a harness error for a per-point failure: %v", err)
	}
	q := rep.Quarantined()
	if len(q) != 1 || q[0].Index != 1 || !strings.Contains(q[0].LastError, "nil pattern") {
		t.Fatalf("quarantined %+v, want exactly point 1 with the nil pattern error", q)
	}
	if !strings.Contains(q[0].Key, "/nil@") {
		t.Fatalf("key %q does not name the missing pattern", q[0].Key)
	}
}

// TestPostPointPanicStopsRun: a panic in PostPoint is a harness failure.
// Run returns it, and no point after the one being posted starts.
func TestPostPointPanicStopsRun(t *testing.T) {
	g := testGrid(6)
	var runs atomic.Int32
	for i := range g.Points {
		g.Points[i].Mod = func(*core.Config) { runs.Add(1) }
	}
	path := t.TempDir() + "/manifest.jsonl"
	// The first run journals points 0-2 and panics in PostPoint on the
	// third; the resumed run panics on its first pending point, index 3.
	calls := 0
	_, err := Run(g, Config{Workers: 1, Manifest: path, PostPoint: func(PointState) {
		if calls++; calls == 3 {
			panic("observer bug")
		}
	}})
	if err == nil || !strings.Contains(err.Error(), "observer bug") || !strings.Contains(err.Error(), "farm: point "+g.Key(2)+":") {
		t.Fatalf("Run: %v, want the PostPoint panic naming point %s", err, g.Key(2))
	}
	if n := runs.Load(); n != 3 {
		t.Fatalf("%d points ran, want 3: the panic must stop the run", n)
	}
	_, err = Run(g, Config{Workers: 1, Manifest: path, Resume: true, PostPoint: func(PointState) { panic("observer bug") }})
	if err == nil || !strings.Contains(err.Error(), "farm: point "+g.Key(3)+":") {
		t.Fatalf("resumed Run: %v, want the PostPoint panic naming point %s", err, g.Key(3))
	}
	if n := runs.Load(); n != 4 {
		t.Fatalf("%d points ran in all, want 4: the resumed run must stop after one", n)
	}
}

func TestRunResumesFromManifest(t *testing.T) {
	g := testGrid(6)
	path := t.TempDir() + "/manifest.jsonl"

	first, err := Run(g, Config{Workers: 2, Manifest: path})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if !first.Complete() {
		t.Fatal("first run incomplete")
	}

	second, err := Run(g, Config{Workers: 2, Manifest: path, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if second.Ran != 0 || second.Resumed != len(g.Points) {
		t.Fatalf("resume re-ran %d points (resumed %d), want 0 (%d)", second.Ran, second.Resumed, len(g.Points))
	}
	if !second.Complete() || second.GridDigest() != first.GridDigest() {
		t.Fatalf("resumed digest %016x != original %016x", second.GridDigest(), first.GridDigest())
	}
	for i, p := range second.Points {
		if !p.Resumed {
			t.Fatalf("point %d not marked resumed: %+v", i, p)
		}
		if p.Summary != first.Points[i].Summary {
			t.Fatalf("point %d summary lost in round-trip:\n got %+v\nwant %+v", i, p.Summary, first.Points[i].Summary)
		}
	}
}

func TestResumeRejectsMismatchedGrid(t *testing.T) {
	g := testGrid(6)
	path := t.TempDir() + "/manifest.jsonl"
	if _, err := Run(g, Config{Workers: 2, Manifest: path}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	other := testGrid(6)
	other.Opts.Seed = 99 // different behaviour, same keys
	if _, err := Run(other, Config{Workers: 2, Manifest: path, Resume: true}); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("resume against a different grid: %v, want ErrManifestMismatch", err)
	}
	smaller := testGrid(4)
	if _, err := Run(smaller, Config{Workers: 2, Manifest: path, Resume: true}); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("resume against a smaller grid: %v, want ErrManifestMismatch", err)
	}
}

func TestMergeDigestsOrderSensitive(t *testing.T) {
	a := MergeDigests([]uint64{1, 2, 3})
	b := MergeDigests([]uint64{3, 2, 1})
	if a == b {
		t.Fatal("digest merge is order-insensitive")
	}
	if MergeDigests(nil) != MergeDigests([]uint64{}) {
		t.Fatal("empty merges disagree")
	}
}

func TestGridFingerprintSensitivity(t *testing.T) {
	g := testGrid(4)
	base := g.Fingerprint()
	seeded := g
	seeded.Opts.Seed = 8
	if seeded.Fingerprint() == base {
		t.Fatal("fingerprint ignores seed")
	}
	renamed := g
	renamed.Name = "other"
	if renamed.Fingerprint() == base {
		t.Fatal("fingerprint ignores name")
	}
	shorter := testGrid(3)
	if shorter.Fingerprint() == base {
		t.Fatal("fingerprint ignores point count")
	}
}
