package check_test

import (
	"testing"

	"photon/internal/check"
	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/sim"
)

// chaosGrid returns the chaos battery and its quick grid on a short window.
func chaosGrid(t *testing.T) (*check.Battery, check.Grid) {
	t.Helper()
	b, err := check.Lookup("chaos")
	if err != nil {
		t.Fatal(err)
	}
	g := b.Grid(true)
	g.Window = sim.Window{Warmup: 200, Measure: 600, Drain: 600}
	return b, g
}

// TestChaosReduced: an end-to-end chaos battery over a scheme pair must
// come back green with sane reporting. (cmd/verify -chaos runs the full
// quick chaos battery; this keeps the test suite fast.)
func TestChaosReduced(t *testing.T) {
	b, g := chaosGrid(t)
	g.Schemes = []core.Scheme{core.TokenSlot, core.DHS}
	g.FaultRates = []float64{0.01, 0.05}
	rep, err := b.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("chaos battery failed:\n%v", rep.Failures())
	}
	// TokenSlot gets token+stall classes, DHS all four: (2+4) * 2 rates.
	if len(rep.Points) != 12 {
		t.Fatalf("expected 12 point reports, got %d", len(rep.Points))
	}
	if check.TableRows(rep.Table()) != len(rep.Points) {
		t.Fatal("table row count mismatch")
	}
	// Cross legs: one inertness check per scheme plus the two fixed legs.
	if len(rep.Cross) != len(g.Schemes)+2 {
		t.Fatalf("expected %d cross checks, got %d", len(g.Schemes)+2, len(rep.Cross))
	}
	fired := false
	for _, p := range rep.Points {
		if p.Digest == 0 {
			t.Fatalf("degenerate point report: %+v", p)
		}
		if p.Acct.FaultsInjected > 0 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("no chaos point ever injected a fault; the battery proves nothing")
	}
}

// TestChaosDetectsPermanentLoss: a point whose scheme cannot recover the
// injected class must come back red — the battery's Recovered check is
// live, not vacuously true.
func TestChaosDetectsPermanentLoss(t *testing.T) {
	b, g := chaosGrid(t)
	g.Schemes = []core.Scheme{core.DHSCirculation}
	g.Classes = []fault.Class{fault.DataLoss}
	g.FaultRates = []float64{0.05}
	rep, err := b.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The applicability filter keeps fire-and-forget data loss out of the
	// grid (it lives in a cross leg instead), so the grid is empty here...
	if len(rep.Points) != 0 {
		t.Fatalf("expected the unrecoverable pairing to be filtered, got %d points", len(rep.Points))
	}
	// ...and the permanent-loss cross leg must still have verified that
	// data faults on DHS-circulation really do lose packets.
	found := false
	for _, c := range rep.Cross {
		if c.Name == "fire-and-forget data loss is permanent (DHS-cir)" {
			found = true
			if !c.Pass {
				t.Fatalf("permanent-loss leg failed: %s", c.Detail)
			}
		}
	}
	if !found {
		t.Fatal("permanent-loss cross leg missing from the report")
	}
}
