package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/stats"
	"photon/internal/traffic"
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

// Fig2b reproduces Figure 2(b): Token Slot latency vs load under UR for
// credit counts 4/8/16/32 — the motivation figure showing credit-based
// flow control's dependence on buffer depth.
func Fig2b(opts Options) ([]Curve, *stats.Table, error) {
	curves, err := Sweep(creditSeries(core.TokenSlot), traffic.UniformRandom{}, PaperLoads("UR", opts.Quick), opts)
	if err != nil {
		return nil, nil, err
	}
	return curves, curvesToTable("Figure 2(b): Token Slot latency vs load, UR, by credit count", curves), nil
}

// seriesFor turns a scheme group into sweep series labelled with the
// paper's figure names, preserving registry (presentation) order.
func seriesFor(group []core.Scheme) []SweepSeries {
	series := make([]SweepSeries, len(group))
	for i, s := range group {
		series[i] = SweepSeries{Label: s.PaperName(), Scheme: s}
	}
	return series
}

// globalSeries returns the Figure 8 comparison set: every registered
// global-arbitration scheme.
func globalSeries() []SweepSeries { return seriesFor(core.GlobalGroup()) }

// distributedSeries returns the Figure 9 comparison set: every registered
// distributed-arbitration scheme.
func distributedSeries() []SweepSeries { return seriesFor(core.DistributedGroup()) }

// Fig8 reproduces Figure 8: the global-arbitration group (Token Channel,
// GHS, GHS+Setaside) on the named pattern (UR, BC or TOR).
func Fig8(pattern string, opts Options) ([]Curve, *stats.Table, error) {
	pat, err := traffic.ByName(pattern)
	if err != nil {
		return nil, nil, err
	}
	curves, err := Sweep(globalSeries(), pat, PaperLoads(pat.Name(), opts.Quick), opts)
	if err != nil {
		return nil, nil, err
	}
	title := fmt.Sprintf("Figure 8 (%s): Global Handshake vs Token Channel, latency (cycles) vs load", pat.Name())
	return curves, curvesToTable(title, curves), nil
}

// Fig9 reproduces Figure 9: the distributed-arbitration group (Token Slot,
// DHS, DHS+Setaside, DHS+Circulation) on the named pattern.
func Fig9(pattern string, opts Options) ([]Curve, *stats.Table, error) {
	pat, err := traffic.ByName(pattern)
	if err != nil {
		return nil, nil, err
	}
	curves, err := Sweep(distributedSeries(), pat, PaperLoads(pat.Name(), opts.Quick), opts)
	if err != nil {
		return nil, nil, err
	}
	title := fmt.Sprintf("Figure 9 (%s): Distributed Handshake vs Token Slot, latency (cycles) vs load", pat.Name())
	return curves, curvesToTable(title, curves), nil
}

// Fig11 reproduces Figures 11(a)-(e): credit-count sensitivity of each
// handshake scheme under UR. The paper's point: handshake performance is
// (nearly) independent of credits, unlike Figure 2(b).
func Fig11(scheme core.Scheme, opts Options) ([]Curve, *stats.Table, error) {
	if scheme.CreditBased() {
		return nil, nil, fmt.Errorf("exp: Fig11 is defined for the handshake schemes, not %v", scheme)
	}
	curves, err := Sweep(creditSeries(scheme), traffic.UniformRandom{}, PaperLoads("UR", opts.Quick), opts)
	if err != nil {
		return nil, nil, err
	}
	title := fmt.Sprintf("Figure 11 (%s): latency vs load by credit count, UR", scheme.PaperName())
	return curves, curvesToTable(title, curves), nil
}

// Fig11fResult is one bar of Figure 11(f).
type Fig11fResult struct {
	Scheme   core.Scheme
	Setaside int
	Latency  float64
	// Result is the point's full run result (digest included).
	Result core.Result
}

// Fig11f reproduces Figure 11(f): latency of GHS and DHS with setaside
// sizes 1/2/4/8/16 under UR at 0.11 packets/cycle/core.
func Fig11f(opts Options) ([]Fig11fResult, *stats.Table, error) {
	results, err := RunPoints(fig11fPoints(), opts)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 11(f): latency (cycles) at UR 0.11 by setaside size",
		"scheme", "Setaside_1", "Setaside_2", "Setaside_4", "Setaside_8", "Setaside_16")
	var out []Fig11fResult
	k := 0
	for _, scheme := range fig11fSchemes {
		row := []any{scheme.PaperName()}
		for _, s := range fig11fSizes {
			r := results[k]
			k++
			out = append(out, Fig11fResult{Scheme: scheme, Setaside: s, Latency: r.AvgLatency, Result: r})
			row = append(row, fmt.Sprintf("%.1f", r.AvgLatency))
		}
		t.AddRow(row...)
	}
	return out, t, nil
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
	gc, _, err := Fig8(pattern, opts)
	if err != nil {
		return ThroughputClaim{}, err
	}
	dc, _, err := Fig9(pattern, opts)
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
