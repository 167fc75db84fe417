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

// passed reports whether the point's check of that name passed.
func passed(t *testing.T, p Result, name string) bool {
	t.Helper()
	for _, c := range p.Checks {
		if c.Name == name {
			return c.Pass
		}
	}
	t.Fatalf("%s %s has no %q check", p.Scheme, p.name(), name)
	return false
}

// TestQuickWorkloadBattery runs the CI-sized workload battery end to
// end: every preset workload under every scheme must be deterministic,
// tape-faithful and conservation-clean at every phase boundary.
func TestQuickWorkloadBattery(t *testing.T) {
	rep, err := workloadBattery.Run(workloadBattery.Grid(true), 1)
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
		if p.Workload.Name == "diurnal" {
			want = 3
		}
		if p.Boundaries != want {
			t.Errorf("%s %s audited %d phase boundaries, want %d", p.Scheme, p.Workload.Name, p.Boundaries, want)
		}
		if p.Acct.Injected == 0 {
			t.Errorf("%s %s injected nothing — the battery is vacuous", p.Scheme, p.Workload.Name)
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
	g := workloadBattery.Grid(true)
	r, jobs, err := workloadBattery.jobs(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	tape, err := j.record(12345, g.Window)
	if err != nil {
		t.Fatal(err)
	}
	// Lie about the tape's seed: the live injector leg now runs different
	// traffic than the replay legs.
	tape.Seed = sim.DeriveSeed(1, 0)
	j.tape = tape
	p, err := verifyTape(r, j)
	if err != nil {
		t.Fatal(err)
	}
	if passed(t, p, "tape") {
		t.Fatal("battery accepted a live run that diverged from its tape")
	}
	if !passed(t, p, "determ") {
		t.Fatal("replay determinism should be independent of the tape's recorded seed")
	}
}
