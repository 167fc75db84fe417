package exp

import (
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/sim"
)

// TestFigureGridsBuild pins the named-grid registry: every advertised
// grid builds non-empty, unknown names are rejected, and the combined
// "figures" grid is exactly the concatenation of the individual grids in
// registry order — the property the farm's resumable manifests and
// subprocess shards rely on to rebuild identical grids by name.
func TestFigureGridsBuild(t *testing.T) {
	opts := quickOpts()
	total := 0
	var all []Point
	for _, name := range FigureGridNames() {
		if name == "figures" {
			continue
		}
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

// TestFigureGridsMatchDrivers: every named grid the farm can rebuild is
// the grid its figure driver actually runs — same points, same order —
// checked on what matters, the per-point run digests.
func TestFigureGridsMatchDrivers(t *testing.T) {
	opts := Options{Window: sim.Window{Warmup: 100, Measure: 300, Drain: 300}, Seed: 1, Quick: true}
	curveDigests := func(curves []Curve, err error) ([]uint64, error) {
		var ds []uint64
		for _, c := range curves {
			for _, r := range c.Results {
				ds = append(ds, r.Digest)
			}
		}
		return ds, err
	}
	driver := func(name string) ([]uint64, error) {
		switch {
		case name == "fig2b":
			curves, _, err := Fig2b(opts)
			return curveDigests(curves, err)
		case strings.HasPrefix(name, "fig8:"):
			curves, _, err := Fig8(strings.TrimPrefix(name, "fig8:"), opts)
			return curveDigests(curves, err)
		case strings.HasPrefix(name, "fig9:"):
			curves, _, err := Fig9(strings.TrimPrefix(name, "fig9:"), opts)
			return curveDigests(curves, err)
		case name == "fig11":
			var ds []uint64
			for _, s := range core.Schemes() {
				if s.CreditBased() {
					continue
				}
				curves, _, err := Fig11(s, opts)
				sub, err := curveDigests(curves, err)
				if err != nil {
					return nil, err
				}
				ds = append(ds, sub...)
			}
			return ds, nil
		case name == "fig11f":
			rows, _, err := Fig11f(opts)
			var ds []uint64
			for _, r := range rows {
				ds = append(ds, r.Result.Digest)
			}
			return ds, err
		}
		t.Fatalf("grid %s has no figure driver in this test", name)
		return nil, nil
	}
	for _, name := range FigureGridNames() {
		if name == "figures" {
			continue
		}
		points, err := FigurePoints(name, opts)
		if err != nil {
			t.Fatalf("grid %s: %v", name, err)
		}
		grid, err := RunPoints(points, opts)
		if err != nil {
			t.Fatalf("grid %s: %v", name, err)
		}
		drv, err := driver(name)
		if err != nil {
			t.Fatalf("driver %s: %v", name, err)
		}
		if len(drv) != len(grid) {
			t.Fatalf("%s: driver ran %d points, grid holds %d", name, len(drv), len(grid))
		}
		for i := range grid {
			if drv[i] != grid[i].Digest {
				t.Errorf("%s point %d (%s %s@%g): driver digest %016x != grid digest %016x",
					name, i, points[i].Scheme, points[i].Label, points[i].Rate, drv[i], grid[i].Digest)
			}
		}
	}
}
