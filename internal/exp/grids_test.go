package exp

import "testing"

// TestFigureGridsBuild pins the named-grid registry: every advertised
// grid builds non-empty, unknown names are rejected, and the combined
// "figures" grid is exactly the concatenation of the grids figuresRows
// names, in that order — the property the farm's resumable manifests rely
// on to rebuild identical grids by name.
func TestFigureGridsBuild(t *testing.T) {
	opts := QuickOptions()
	for _, name := range GridNames() {
		if pts, err := FigurePoints(name, opts); err != nil || len(pts) == 0 {
			t.Fatalf("grid %s: %d points, %v", name, len(pts), err)
		}
	}
	var all []Point
	for _, name := range figuresRows {
		pts, err := FigurePoints(name, opts)
		if err != nil {
			t.Fatalf("grid %s: %v", name, err)
		}
		all = append(all, pts...)
	}
	combined, err := FigurePoints("figures", opts)
	if err != nil {
		t.Fatal(err)
	}
	// 249 points: the figures grid whose quick seed-1 farm digest the
	// documents quote.
	if len(combined) != len(all) || len(combined) != 249 {
		t.Fatalf("figures grid has %d points, its rows sum to %d, want 249", len(combined), len(all))
	}
	for i, p := range combined {
		q := all[i]
		if p.Scheme != q.Scheme || p.Rate != q.Rate || p.Label != q.Label || p.Pattern.Name() != q.Pattern.Name() {
			t.Fatalf("figures[%d] = %s/%s@%g#%q, concatenation has %s/%s@%g#%q",
				i, p.Scheme, p.Pattern.Name(), p.Rate, p.Label, q.Scheme, q.Pattern.Name(), q.Rate, q.Label)
		}
	}
	for _, name := range []string{"no-such-grid", "fig10", "workload"} {
		if _, err := FigurePoints(name, opts); err == nil {
			t.Fatalf("FigurePoints accepted %q, which is no grid", name)
		}
	}
}
