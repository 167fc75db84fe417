package exp

import (
	"errors"
	"io"
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/traffic"
)

func TestFigureDriversRejectBadInput(t *testing.T) {
	opts := QuickOptions()
	if _, err := FigurePoints("fig8:NOPE", opts); err == nil {
		t.Error("FigurePoints accepted Figure 8 on an unknown pattern")
	}
	if _, err := workloadRowPoints(opts, Params{Workload: "bursty", Pattern: "NOPE"}); err == nil {
		t.Error("the workload row accepted an unknown pattern")
	}
	if _, err := MultiFlitStudy(0.01, Options{Window: opts.Window}); err != nil {
		t.Errorf("MultiFlitStudy with zero-value quick flag failed: %v", err)
	}
	if _, err := FairnessStudy(core.TokenSlot, opts); err == nil {
		t.Error("FairnessStudy accepted a credit scheme")
	}
}

func TestSweepPropagatesPointErrors(t *testing.T) {
	broken := Point{
		Label: "broken", Scheme: core.DHS, Pattern: traffic.UniformRandom{},
		Mod: func(c *core.Config) { c.BufferDepth = 0 },
	}
	if _, err := Simulate(overLoads(broken, []float64{0.01}), QuickOptions()); err == nil {
		t.Error("Simulate swallowed a configuration error")
	}
	// A point Simulate was not given is an error, not a zero result.
	claims, _ := StudyByName("claims")
	if err := claims.Render(&Output{W: io.Discard}, QuickOptions(), Params{}, Results{}); err == nil {
		t.Error("a row rendered points that were never simulated")
	}
}

// TestRunPointsContainsPanic pins the supervision contract of the worker
// pool: a panicking point surfaces as a *PointPanic carrying the point's
// identity and stack instead of crashing the pool, and the error message
// names which point died.
func TestRunPointsContainsPanic(t *testing.T) {
	points := []Point{
		{Scheme: core.TokenSlot, Pattern: traffic.UniformRandom{}, Rate: 0.01},
		{Scheme: core.DHS, Pattern: traffic.UniformRandom{}, Rate: 0.01,
			Mod: func(*core.Config) { panic("wired to explode") }},
		{Scheme: core.GHS, Pattern: traffic.UniformRandom{}, Rate: 0.01},
	}
	opts := QuickOptions()
	opts.Parallel = 2
	_, err := RunPoints(points, opts)
	if err == nil {
		t.Fatal("panicking point did not surface as an error")
	}
	var pp *PointPanic
	if !errors.As(err, &pp) {
		t.Fatalf("error is not a *PointPanic: %v", err)
	}
	if pp.Scheme != core.DHS || pp.Value != "wired to explode" {
		t.Fatalf("panic lost the point identity or value: %+v", pp)
	}
	if len(pp.Stack) == 0 {
		t.Fatal("panic lost its stack")
	}
	if !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("error does not name the point: %v", err)
	}
}

// TestSafeRunPointPassthrough pins that the recovery wrapper is inert on
// healthy points: same result, same digest as the direct call.
func TestSafeRunPointPassthrough(t *testing.T) {
	p := Point{Scheme: core.TokenSlot, Pattern: traffic.UniformRandom{}, Rate: 0.02}
	opts := QuickOptions()
	direct, err := RunPoint(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	safe, err := SafeRunPoint(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if safe.Digest != direct.Digest {
		t.Fatalf("recovery wrapper perturbed the run: %016x vs %016x", safe.Digest, direct.Digest)
	}
}

// TestNilPatternIsAnError: a point with no pattern is reported by every
// path that names points, none of which may fault on the nil while doing
// so (RunPoints' error, SafeRunPoint's recover, the point's String).
func TestNilPatternIsAnError(t *testing.T) {
	p := Point{Rate: 0.05}
	if _, err := RunPoints([]Point{p}, QuickOptions()); err == nil || !strings.Contains(err.Error(), "nil pattern") {
		t.Fatalf("RunPoints on a nil-pattern point: %v, want the nil pattern error", err)
	}
	if _, err := SafeRunPoint(p, QuickOptions()); err == nil {
		t.Fatal("SafeRunPoint accepted a nil-pattern point")
	}
	if got := (&PointPanic{Point: p, Value: "boom"}).Error(); !strings.Contains(got, "/nil@0.05") {
		t.Fatalf("PointPanic names the point as %q", got)
	}
}

func TestRunPointsEmpty(t *testing.T) {
	res, err := RunPoints(nil, QuickOptions())
	if err != nil || len(res) != 0 {
		t.Fatalf("empty RunPoints: %v, %d", err, len(res))
	}
}
