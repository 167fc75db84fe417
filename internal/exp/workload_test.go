package exp

import (
	"reflect"
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/traffic"
)

// TestWorkloadSLODeterminism pins the -workload acceptance property: the
// same (point, options) produces the same per-phase SLO report — digest,
// phase boundaries, quantiles, attribution, everything — across two
// independent runs.
func TestWorkloadSLODeterminism(t *testing.T) {
	p := Point{
		Scheme:   core.Schemes()[0],
		Pattern:  traffic.UniformRandom{},
		Workload: "0.5@bernoulli(rate=0.05);0.5@burst(rate=0.2,on=100,off=300)",
	}
	a, err := RunWorkloadSLO(p, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkloadSLO(p, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two same-seed runs diverged:\n%+v\n%+v", a, b)
	}
	if len(a.Phases) != 2 {
		t.Fatalf("want 2 phases, got %d", len(a.Phases))
	}
	for i, ph := range a.Phases {
		if ph.Spans == 0 {
			t.Errorf("phase %d saw no measured packets", i+1)
		}
		if ph.P50 > ph.P99 || ph.P99 > ph.P999 || ph.P999 > ph.Max {
			t.Errorf("phase %d quantiles not monotone: p50 %d p99 %d p999 %d max %d",
				i+1, ph.P50, ph.P99, ph.P999, ph.Max)
		}
		if int64(ph.Attr.Spans) != ph.Spans {
			t.Errorf("phase %d: histogram has %d spans, attribution %d — populations diverged",
				i+1, ph.Spans, ph.Attr.Spans)
		}
	}
}

// TestWorkloadSLODigestInert pins that arming the SLO stream does not
// perturb the simulation: Result matches the untraced RunPoint bit for
// bit, including the behavioural digest.
func TestWorkloadSLODigestInert(t *testing.T) {
	p := Point{
		Scheme:   core.Schemes()[0],
		Pattern:  traffic.UniformRandom{},
		Workload: "burst(rate=0.2,on=100,off=300)",
	}
	slo, err := RunWorkloadSLO(p, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunPoint(p, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if slo.Result != plain {
		t.Fatalf("SLO run result diverged from plain run:\nslo   %+v\nplain %+v", slo.Result, plain)
	}
}

// TestWorkloadPointEquivalence pins that a workload spec of
// bernoulli(rate=r) is the same experiment as a bare Rate r: identical
// Result, digest included.
func TestWorkloadPointEquivalence(t *testing.T) {
	s := core.Schemes()[0]
	plain, err := RunPoint(Point{Scheme: s, Pattern: traffic.UniformRandom{}, Rate: 0.11}, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := RunPoint(Point{Scheme: s, Pattern: traffic.UniformRandom{}, Workload: "bernoulli(rate=0.11)"}, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plain != viaSpec {
		t.Fatalf("workload bernoulli diverged from bare rate:\nrate %+v\nspec %+v", plain, viaSpec)
	}
}

// TestWorkloadGrid pins the "slo" grid registration: it builds non-empty
// with every point carrying a canonical workload spec, and it is NOT
// part of the pinned "figures" union.
func TestWorkloadGrid(t *testing.T) {
	pts, err := FigurePoints("slo", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	presets := traffic.PresetWorkloads()
	if want := len(presets) * len(core.Schemes()); len(pts) != want {
		t.Fatalf("slo grid has %d points, want %d", len(pts), want)
	}
	for i, p := range pts {
		if p.Workload == "" {
			t.Fatalf("slo[%d] has no workload spec", i)
		}
		w, err := traffic.ParseWorkload(p.Workload)
		if err != nil {
			t.Fatalf("slo[%d] spec %q: %v", i, p.Workload, err)
		}
		if canon := w.String(); canon != p.Workload {
			t.Fatalf("slo[%d] spec %q is not canonical (%q)", i, p.Workload, canon)
		}
	}
	figs, err := FigurePoints("figures", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range figs {
		if p.Workload != "" {
			t.Fatalf("figures[%d] carries workload %q; the pinned union must stay Bernoulli-only", i, p.Workload)
		}
	}
	// The error for unknown grids advertises the workload grids too.
	if _, err := FigurePoints("bogus", QuickOptions()); err == nil || !strings.Contains(err.Error(), "slo") {
		t.Fatalf("unknown-grid error does not advertise slo: %v", err)
	}
}
