package exp

import (
	"testing"

	"photon/internal/core"
	"photon/internal/traffic"
)

func TestRunPointBasic(t *testing.T) {
	res, err := RunPoint(Point{
		Scheme:  core.DHSSetaside,
		Pattern: traffic.UniformRandom{},
		Rate:    0.05,
	}, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.AvgLatency <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestRunPointRejectsBadConfig(t *testing.T) {
	_, err := RunPoint(Point{
		Scheme:  core.DHSSetaside,
		Pattern: traffic.UniformRandom{},
		Rate:    0.05,
		Mod:     func(c *core.Config) { c.BufferDepth = 0 },
	}, QuickOptions())
	if err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestRunPointsParallelOrdering(t *testing.T) {
	pts := []Point{
		{Scheme: core.TokenSlot, Pattern: traffic.UniformRandom{}, Rate: 0.02},
		{Scheme: core.DHS, Pattern: traffic.UniformRandom{}, Rate: 0.02},
		{Scheme: core.DHSSetaside, Pattern: traffic.UniformRandom{}, Rate: 0.02},
	}
	opts := QuickOptions()
	opts.Parallel = 3
	res, err := RunPoints(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if res[i].Scheme != p.Scheme {
			t.Fatalf("result %d has scheme %v, want %v (ordering broken)", i, res[i].Scheme, p.Scheme)
		}
	}
	// Parallel execution must be deterministic: rerun serially.
	opts.Parallel = 1
	res2, err := RunPoints(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i] != res2[i] {
			t.Fatalf("parallel and serial results differ at %d", i)
		}
	}
}

func TestCurveHelpers(t *testing.T) {
	c := Curve{
		Loads:      []float64{0.01, 0.05, 0.11},
		Latency:    []float64{10, 20, 900},
		Throughput: []float64{0.01, 0.05, 0.06},
	}
	if got := c.SaturationThroughput(); got != 0.06 {
		t.Fatalf("SaturationThroughput = %v", got)
	}
}

func TestPaperLoadsGrids(t *testing.T) {
	for _, pat := range []string{"UR", "BC", "TOR"} {
		full, quick := PaperLoads(pat, false), PaperLoads(pat, true)
		if len(full) <= len(quick) {
			t.Errorf("%s: full grid (%d) not denser than quick (%d)", pat, len(full), len(quick))
		}
		for i := 1; i < len(full); i++ {
			if full[i] <= full[i-1] {
				t.Errorf("%s: grid not increasing at %d", pat, i)
			}
		}
	}
}
