package check

import (
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// TableRows counts a table's data rows through its CSV form (header
// excluded). Exported for the check_test files.
func TableRows(tab *stats.Table) int {
	var csv strings.Builder
	if err := tab.WriteCSV(&csv); err != nil {
		panic(err)
	}
	return strings.Count(csv.String(), "\n") - 1
}

// TestQuickWorkloadBattery runs the CI-sized workload battery end to
// end: every preset workload under every scheme must be deterministic,
// tape-faithful and conservation-clean at every phase boundary.
func TestQuickWorkloadBattery(t *testing.T) {
	rep, err := RunWorkloads(QuickWorkloadBattery(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("workload battery failed:\n%s", strings.Join(rep.Failures(), "\n"))
	}
	presets := traffic.PresetWorkloads()
	if want := len(presets) * len(core.Schemes()); len(rep.Points) != want {
		t.Fatalf("battery covered %d points, want %d", len(rep.Points), want)
	}
	// The diurnal preset has three phases, so its mid-run conservation
	// audit must have fired at three boundaries; single-phase workloads
	// still audit once, at the injection-span end.
	for _, p := range rep.Points {
		want := 1
		if p.Workload == "diurnal" {
			want = 3
		}
		if p.Boundaries != want {
			t.Errorf("%s %s audited %d phase boundaries, want %d", p.Scheme, p.Workload, p.Boundaries, want)
		}
		if p.Injected == 0 {
			t.Errorf("%s %s injected nothing — the battery is vacuous", p.Scheme, p.Workload)
		}
	}
	if TableRows(rep.Table()) != len(rep.Points) {
		t.Fatal("report table does not cover every point")
	}
}

// TestWorkloadBatteryDetectsDivergence pins that the battery's
// tape-faithfulness check actually bites: verifying a point against a
// tape recorded from a different seed must fail, not silently pass.
func TestWorkloadBatteryDetectsDivergence(t *testing.T) {
	b := QuickWorkloadBattery(1)
	preset := traffic.PresetWorkloads()[0]
	w, err := traffic.ParseWorkload(preset.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(b.Schemes[0])
	span := b.Window.Warmup + b.Window.Measure
	tape, err := traffic.RecordWorkloadTape(w, b.Pattern, cfg.Nodes, cfg.CoresPerNode, 12345, span)
	if err != nil {
		t.Fatal(err)
	}
	// Lie about the tape's seed: the live injector leg now runs different
	// traffic than the replay legs.
	tape.Seed = sim.DeriveSeed(b.Seed, 0)
	p, err := verifyWorkloadPoint(b, b.Schemes[0], preset, w, tape)
	if err != nil {
		t.Fatal(err)
	}
	if p.TapeFaithful {
		t.Fatal("battery accepted a live run that diverged from its tape")
	}
	if p.Deterministic != true {
		t.Fatal("replay determinism should be independent of the tape's recorded seed")
	}
}
