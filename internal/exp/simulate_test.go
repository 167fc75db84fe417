package exp

import (
	"bytes"
	"testing"

	"photon/internal/core"
	"photon/internal/traffic"
)

// TestPointKey: two points are one simulation exactly when they resolve
// to the same configuration, pattern and load or workload — whatever
// their labels, and whether the configuration came from a Mod or from
// the defaults.
func TestPointKey(t *testing.T) {
	opts := QuickOptions()
	key := func(p Point) pointKey { return keyOf(p, opts) }
	ur := traffic.UniformRandom{}
	at := func(points []Point, scheme core.Scheme, label string, rate float64) Point {
		t.Helper()
		for _, p := range points {
			if p.Scheme == scheme && p.Label == label && p.Rate == rate {
				return p
			}
		}
		t.Fatalf("no %s#%s@%g point", scheme, label, rate)
		return Point{}
	}
	fig8 := groupPoints(core.GlobalGroup(), ur, opts)
	fig9 := groupPoints(core.DistributedGroup(), ur, opts)
	fig2b := creditPoints(opts, core.TokenSlot)

	// Figure 12's unlabelled points are Figure 8's and 9's labelled ones.
	for _, p := range fig12Points(0.11) {
		group := fig9
		if p.Scheme.Global() {
			group = fig8
		}
		if q := at(group, p.Scheme, p.Scheme.PaperName(), 0.11); key(p) != key(q) {
			t.Errorf("%s and %s are one simulation but two keys", p, q)
		}
	}
	// Credit_8 is the default buffer depth; Credit_4 is another network.
	slot := at(fig9, core.TokenSlot, core.TokenSlot.PaperName(), 0.05)
	if c8 := at(fig2b, core.TokenSlot, "Credit_8", 0.05); key(c8) != key(slot) {
		t.Errorf("%s and %s are one simulation but two keys", c8, slot)
	}
	if c4 := at(fig2b, core.TokenSlot, "Credit_4", 0.05); key(c4) == key(slot) {
		t.Errorf("%s and %s share a key", c4, slot)
	}
	// A workload point carries a per-phase report a rate point lacks, even
	// where the two inject the same packets.
	rate := Point{Scheme: core.DHS, Pattern: ur, Rate: 0.05}
	spec := rate
	spec.Workload = "bernoulli(rate=0.05)"
	if key(spec) == key(rate) {
		t.Errorf("workload point %s shares the key of rate point %s", spec, rate)
	}
}

// TestSimulateRunsEachKeyOnce: the union of every grid row's quick points
// runs each distinct key exactly once, and rendering the rows from the
// results runs nothing more. 405 network points cover 233 keys: claims
// repeats the 119 points of the six Figure 8/9 grids, fig12, fig12a and
// fig12b repeat 7 of them each, fig11 repeats 25, fig2b 5 and fig11f 2.
// slo adds its 21 workload points.
func TestSimulateRunsEachKeyOnce(t *testing.T) {
	opts := QuickOptions()
	var rows []Study
	var points []Point
	network := 0
	for _, s := range Studies() {
		if !s.grid() {
			continue
		}
		ps, err := s.Points(opts, s.params(Params{}))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if p.Workload == "" {
				network++
			}
		}
		rows, points = append(rows, s), append(points, ps...)
	}
	if network != 405 || len(points) != 405+21 {
		t.Fatalf("union has %d network and %d workload points, want 405 and 21", network, len(points)-network)
	}
	runs := stubRuns(t)
	res, err := Simulate(points, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 233+21 {
		t.Errorf("union simulated %d distinct keys, want %d", len(runs), 233+21)
	}
	for k, n := range runs {
		if n != 1 {
			t.Errorf("key %+v simulated %d times", k, n)
		}
	}
	clear(runs)
	out := &Output{W: new(bytes.Buffer)}
	for _, s := range rows {
		if err := s.Render(out, opts, s.params(Params{}), res); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if len(runs) != 0 {
		t.Errorf("rendering simulated %d more points", len(runs))
	}
}
