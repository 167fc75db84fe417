package exp

import "testing"

// TestFigureGridsBuild pins the named-grid registry: every advertised
// grid builds non-empty, unknown names are rejected, and the combined
// "figures" grid is exactly the concatenation of the individual grids in
// registry order — the property the farm's resumable manifests rely on
// to rebuild identical grids by name.
func TestFigureGridsBuild(t *testing.T) {
	opts := QuickOptions()
	total := 0
	var all []Point
	for _, s := range Studies() {
		if s.Grid == nil || s.Paper == "" {
			continue // "figures" is the union of the paper-figure grids only
		}
		name := s.Name
		pts, err := FigurePoints(name, opts)
		if err != nil {
			t.Fatalf("grid %s: %v", name, err)
		}
		if len(pts) == 0 {
			t.Fatalf("grid %s is empty", name)
		}
		total += len(pts)
		all = append(all, pts...)
	}
	combined, err := FigurePoints("figures", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(combined) != total {
		t.Fatalf("figures grid has %d points, individual grids sum to %d", len(combined), total)
	}
	for i, p := range combined {
		q := all[i]
		if p.Scheme != q.Scheme || p.Rate != q.Rate || p.Label != q.Label || p.Pattern.Name() != q.Pattern.Name() {
			t.Fatalf("figures[%d] = %s/%s@%g#%q, concatenation has %s/%s@%g#%q",
				i, p.Scheme, p.Pattern.Name(), p.Rate, p.Label, q.Scheme, q.Pattern.Name(), q.Rate, q.Label)
		}
	}
	if _, err := FigurePoints("no-such-grid", opts); err == nil {
		t.Fatal("unknown grid name accepted")
	}
}
