package exp

import (
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// tableRows counts a table's data rows through its CSV form (header
// excluded).
func tableRows(tab *stats.Table) int {
	var csv strings.Builder
	if err := tab.WriteCSV(&csv); err != nil {
		panic(err)
	}
	return strings.Count(csv.String(), "\n") - 1
}

// quick returns reduced-fidelity options shared by these tests.
func quickOpts() Options {
	o := QuickOptions()
	return o
}

func TestRunPointBasic(t *testing.T) {
	res, err := RunPoint(Point{
		Scheme:  core.DHSSetaside,
		Pattern: traffic.UniformRandom{},
		Rate:    0.05,
	}, quickOpts())
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
	}, quickOpts())
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
	opts := quickOpts()
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

// TestFig2bShape: Figure 2(b)'s point — Token Slot's saturation improves
// with credit count and levels off once credits cover the loop.
func TestFig2bShape(t *testing.T) {
	curves, err := Figure("fig2b", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("%d curves", len(curves))
	}
	sat4 := curves[0].SaturationThroughput()
	sat16 := curves[2].SaturationThroughput()
	sat32 := curves[3].SaturationThroughput()
	if sat4 >= sat16 {
		t.Errorf("credit_4 saturation %.3f not below credit_16 %.3f", sat4, sat16)
	}
	if sat32 < sat16*0.9 {
		t.Errorf("credit_32 (%.3f) should not be worse than credit_16 (%.3f)", sat32, sat16)
	}
	if table := curvesToTable("fig2b", curves); !strings.Contains(table.String(), "Credit_8") {
		t.Error("table missing series")
	}
}

// TestFig8Shape: GHS with setaside must beat Token Channel's saturation
// throughput on every paper pattern.
func TestFig8Shape(t *testing.T) {
	for _, pat := range []string{"UR", "BC"} {
		curves, err := Figure("fig8:"+pat, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		var tc, ghsSB float64
		for _, c := range curves {
			switch c.Scheme {
			case core.TokenChannel:
				tc = c.SaturationThroughput()
			case core.GHSSetaside:
				ghsSB = c.SaturationThroughput()
			}
		}
		if ghsSB <= tc {
			t.Errorf("%s: GHS w/ setaside %.4f does not beat Token Channel %.4f", pat, ghsSB, tc)
		}
	}
}

// TestFig9Shape: the paper's two Figure 9 claims — Token Slot beats basic
// DHS on Bit Complement (HOL blocking), and DHS with setaside/circulation
// beats Token Slot.
func TestFig9Shape(t *testing.T) {
	curves, err := Figure("fig9:BC", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	sat := map[core.Scheme]float64{}
	for _, c := range curves {
		sat[c.Scheme] = c.SaturationThroughput()
	}
	if sat[core.TokenSlot] <= sat[core.DHS] {
		t.Errorf("BC: Token Slot %.4f should beat basic DHS %.4f (HOL blocking)",
			sat[core.TokenSlot], sat[core.DHS])
	}
	if sat[core.DHSSetaside] <= sat[core.DHS] {
		t.Errorf("BC: setaside %.4f should beat basic %.4f", sat[core.DHSSetaside], sat[core.DHS])
	}
	if sat[core.DHSCirculation] < 0.9*sat[core.DHSSetaside] {
		t.Errorf("BC: circulation %.4f should roughly match setaside %.4f",
			sat[core.DHSCirculation], sat[core.DHSSetaside])
	}
}

// TestFig11CreditIndependence: the handshake schemes' curves must be nearly
// identical across credit counts (Figures 11(a)-(e)).
func TestFig11CreditIndependence(t *testing.T) {
	// One panel of the fig11 row's grid: the row itself runs all five.
	curves, err := runCurves(creditPoints(quickOpts(), core.DHSSetaside), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Compare latency at each sub-saturation load across credit counts.
	for i := range curves[0].Loads {
		lo, hi := curves[0].Latency[i], curves[0].Latency[i]
		for _, c := range curves[1:] {
			if c.Latency[i] < lo {
				lo = c.Latency[i]
			}
			if c.Latency[i] > hi {
				hi = c.Latency[i]
			}
		}
		if lo > 0 && lo < 50 && hi/lo > 1.3 {
			t.Errorf("load %.3f: latency spread %.1f..%.1f across credits — not independent",
				curves[0].Loads[i], lo, hi)
		}
	}
}

// TestFig11fSetasideDiminishingReturns: a couple of setaside slots recover
// most of the performance (Figure 11(f)).
func TestFig11fSetasideDiminishingReturns(t *testing.T) {
	rows, table, err := Fig11f(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	byScheme := map[core.Scheme]map[int]float64{}
	for _, r := range rows {
		if byScheme[r.Scheme] == nil {
			byScheme[r.Scheme] = map[int]float64{}
		}
		byScheme[r.Scheme][r.Setaside] = r.Latency
	}
	for s, m := range byScheme {
		if m[16] > m[4]*1.2 {
			t.Errorf("%v: setaside 16 latency %.1f much worse than 4 (%.1f)", s, m[16], m[4])
		}
	}
	if tableRows(table) != 2 {
		t.Fatalf("table rows %d", tableRows(table))
	}
}

// TestClaims: the headline numbers hold on BC — sizeable handshake
// throughput gains in both groups and sub-1% drop rates.
func TestClaims(t *testing.T) {
	c, err := Claims("BC", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if c.GlobalGainPct < 30 {
		t.Errorf("global-group gain %.0f%% — paper reports up to 62%%", c.GlobalGainPct)
	}
	if c.DistGainPct < 5 {
		t.Errorf("distributed-group gain %.0f%%", c.DistGainPct)
	}
	if c.MaxDropRate > 0.01 {
		t.Errorf("drop rate %.4f above the paper's 1%% bound", c.MaxDropRate)
	}
}

func TestTable1(t *testing.T) {
	rows, table := Table1()
	if len(rows) != 4 || tableRows(table) != 4 {
		t.Fatalf("Table I has %d rows", len(rows))
	}
	if !strings.Contains(table.String(), "1024K") {
		t.Error("Table I missing the 1024K data budget")
	}
}

func TestFig12Shapes(t *testing.T) {
	rows, ta, tb, err := Fig12(0.11, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || tableRows(ta) != 7 || tableRows(tb) != 7 {
		t.Fatalf("Fig12 rows = %d", len(rows))
	}
	byScheme := map[core.Scheme]Fig12Row{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	if byScheme[core.TokenChannel].Breakdown.LaserW <= byScheme[core.TokenSlot].Breakdown.LaserW {
		t.Error("Token Channel should burn the most laser power")
	}
	if byScheme[core.DHSCirculation].Breakdown.HeatW <= byScheme[core.DHS].Breakdown.HeatW {
		t.Error("circulation should add ring-heating power")
	}
	for _, r := range rows {
		if static := r.Breakdown.LaserW + r.Breakdown.HeatW; static < r.Breakdown.TotalW()/2 {
			t.Errorf("%v: static power is not dominant", r.Scheme)
		}
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
