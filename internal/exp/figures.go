package exp

import (
	"fmt"

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

// Fig11f reproduces Figure 11(f): latency of GHS and DHS with setaside
// sizes 1/2/4/8/16 under UR at 0.11 packets/cycle/core, from the runs of
// fig11fPoints.
func Fig11f(runs []WorkloadSLO) *stats.Table {
	t := stats.NewTable("Figure 11(f): latency (cycles) at UR 0.11 by setaside size",
		"scheme", "Setaside_1", "Setaside_2", "Setaside_4", "Setaside_8", "Setaside_16")
	for i, scheme := range fig11fSchemes {
		row := []any{scheme.PaperName()}
		for _, r := range runs[i*len(fig11fSizes) : (i+1)*len(fig11fSizes)] {
			row = append(row, fmt.Sprintf("%.1f", r.Result.AvgLatency))
		}
		t.AddRow(row...)
	}
	return t
}
