package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/stats"
)

// curvesToTable renders a set of latency curves in the paper's layout: one
// row per load, one latency column per series.
func curvesToTable(title string, curves []Curve) *stats.Table {
	headers := []string{"load(pkt/cyc/core)"}
	for _, c := range curves {
		headers = append(headers, c.Label)
	}
	t := stats.NewTable(title, headers...)
	if len(curves) == 0 {
		return t
	}
	for i, load := range curves[0].Loads {
		row := []any{fmt.Sprintf("%.4g", load)}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.1f", c.Latency[i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure runs the named curve-figure row of the catalog (fig2b, fig8:P,
// fig9:P, fig11) and returns its series in grid order — the typed access
// the claims study shares with the row's renderer.
func Figure(name string, opts Options) ([]Curve, error) {
	points, err := FigurePoints(name, opts)
	if err != nil {
		return nil, err
	}
	return runCurves(points, opts)
}

// Fig11f reproduces Figure 11(f): latency of GHS and DHS with setaside
// sizes 1/2/4/8/16 under UR at 0.11 packets/cycle/core.
func Fig11f(opts Options) (*stats.Table, error) {
	results, err := RunPoints(fig11fPoints(), opts)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 11(f): latency (cycles) at UR 0.11 by setaside size",
		"scheme", "Setaside_1", "Setaside_2", "Setaside_4", "Setaside_8", "Setaside_16")
	for i, scheme := range fig11fSchemes {
		row := []any{scheme.PaperName()}
		for _, r := range results[i*len(fig11fSizes) : (i+1)*len(fig11fSizes)] {
			row = append(row, fmt.Sprintf("%.1f", r.AvgLatency))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ThroughputClaim quantifies the paper's headline synthetic-workload
// claims for one pattern: the saturation-throughput gain of the best
// handshake variant over its baseline in each arbitration group, and the
// worst-case drop/retransmission rates across all handshake points.
type ThroughputClaim struct {
	Pattern          string
	GlobalBaseline   float64 // Token Channel saturation throughput
	GlobalHandshake  float64 // best of GHS variants
	GlobalGainPct    float64
	DistBaseline     float64 // Token Slot
	DistHandshake    float64 // best of DHS variants
	DistGainPct      float64
	MaxDropRate      float64
	MaxRetxRate      float64
	MaxCirculateRate float64
}

// Claims measures the throughput-improvement and sub-1%-drop-rate claims
// on the given pattern.
func Claims(pattern string, opts Options) (ThroughputClaim, error) {
	gc, err := Figure("fig8:"+pattern, opts)
	if err != nil {
		return ThroughputClaim{}, err
	}
	dc, err := Figure("fig9:"+pattern, opts)
	if err != nil {
		return ThroughputClaim{}, err
	}
	claim := ThroughputClaim{Pattern: pattern}
	for _, c := range gc {
		sat := c.SaturationThroughput()
		if c.Scheme == core.TokenChannel {
			claim.GlobalBaseline = sat
		} else if sat > claim.GlobalHandshake {
			claim.GlobalHandshake = sat
		}
		claim.scanRates(c)
	}
	for _, c := range dc {
		sat := c.SaturationThroughput()
		if c.Scheme == core.TokenSlot {
			claim.DistBaseline = sat
		} else if sat > claim.DistHandshake {
			claim.DistHandshake = sat
		}
		claim.scanRates(c)
	}
	if claim.GlobalBaseline > 0 {
		claim.GlobalGainPct = 100 * (claim.GlobalHandshake - claim.GlobalBaseline) / claim.GlobalBaseline
	}
	if claim.DistBaseline > 0 {
		claim.DistGainPct = 100 * (claim.DistHandshake - claim.DistBaseline) / claim.DistBaseline
	}
	return claim, nil
}

func (tc *ThroughputClaim) scanRates(c Curve) {
	if !c.Scheme.Handshake() && !c.Scheme.Circulating() {
		return
	}
	for _, r := range c.Results {
		if r.DropRate > tc.MaxDropRate {
			tc.MaxDropRate = r.DropRate
		}
		if r.RetransmitRate > tc.MaxRetxRate {
			tc.MaxRetxRate = r.RetransmitRate
		}
		if r.CirculationRate > tc.MaxCirculateRate {
			tc.MaxCirculateRate = r.CirculationRate
		}
	}
}
