package farm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/sim"
	"photon/internal/traffic"
)

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

// noSleep replaces the retry clock so backoff tests finish instantly.
func noSleep(cfg *Config) *[]time.Duration {
	var (
		mu     sync.Mutex
		slept  []time.Duration
		record = func(d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			slept = append(slept, d)
		}
	)
	cfg.sleep = record
	return &slept
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

// TestQuarantineAfterK injects an always-panicking point and asserts the
// supervision contract: the poison point is retried with the exact
// backoff schedule, quarantined after MaxAttempts, and the rest of the
// grid completes untouched.
func TestQuarantineAfterK(t *testing.T) {
	g := testGrid(6)
	g.Points[2].Mod = func(*core.Config) { panic("injected poison point") }
	g.Points[2].Label = "poison"

	cfg := Config{Workers: 2, MaxAttempts: 3, Backoff: Backoff{Base: 10 * time.Millisecond, Cap: time.Minute}}
	slept := noSleep(&cfg)
	rep, err := Run(g, cfg)
	if err != nil {
		t.Fatalf("Run returned a harness error for a per-point failure: %v", err)
	}
	if rep.Complete() {
		t.Fatal("grid reported complete despite a poison point")
	}
	q := rep.Quarantined()
	if len(q) != 1 || q[0].Index != 2 {
		t.Fatalf("quarantined %+v, want exactly point 2", q)
	}
	if q[0].Attempts != 3 {
		t.Fatalf("poison point got %d attempts, want 3", q[0].Attempts)
	}
	if !strings.Contains(q[0].LastError, "injected poison point") || !strings.Contains(q[0].LastError, q[0].Key) {
		t.Fatalf("quarantine error lost identity or cause: %q", q[0].LastError)
	}
	for i, p := range rep.Points {
		if i != 2 && p.Status != StatusDone {
			t.Fatalf("healthy point %d ended %s: %s", i, p.Status, p.LastError)
		}
	}
	// Two retries -> backoff slept exactly Base then 2*Base.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("backoff schedule %v, want %v", *slept, want)
	}
}

// TestNilPatternPointQuarantines: a point with no pattern is a per-point
// failure like any other — keyed, retried, quarantined with the injector's
// error — not a crash while formatting its key.
func TestNilPatternPointQuarantines(t *testing.T) {
	g := testGrid(3)
	g.Points[1].Pattern = nil
	cfg := Config{Workers: 2, MaxAttempts: 2}
	noSleep(&cfg)
	rep, err := Run(g, cfg)
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

func TestPointTimeoutQuarantines(t *testing.T) {
	g := testGrid(3)
	g.Points[1].Mod = func(*core.Config) { time.Sleep(10 * time.Second) }
	g.Points[1].Label = "hang"

	// The deadline must be generous enough that the healthy millisecond
	// points clear it even under the race detector's slowdown.
	cfg := Config{Workers: 3, MaxAttempts: 2, PointTimeout: time.Second}
	noSleep(&cfg)
	rep, err := Run(g, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	q := rep.Quarantined()
	if len(q) != 1 || q[0].Index != 1 || q[0].Attempts != 2 {
		t.Fatalf("quarantined %+v, want point 1 after 2 attempts", q)
	}
	if !strings.Contains(q[0].LastError, ErrPointTimeout.Error()) {
		t.Fatalf("timeout not named in %q", q[0].LastError)
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

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (Backoff{}).Delay(1); got != 100*time.Millisecond {
		t.Fatalf("zero-value base delay = %v", got)
	}
	if got := (Backoff{}).Delay(1000); got != 5*time.Second {
		t.Fatalf("zero-value capped delay = %v", got)
	}
	if got := (Backoff{Base: time.Second, Cap: time.Millisecond}).Delay(1); got != time.Second {
		t.Fatalf("cap below base should clamp to base, got %v", got)
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
