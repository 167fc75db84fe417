package trace

import (
	"fmt"

	"photon/internal/stats"
)

// Analysis summarises a trace's network-relevant character — the numbers a
// workload sheet reports before any simulation runs.
type Analysis struct {
	App     string
	Records int
	// Rate is packets/cycle/core.
	Rate float64
	// VMR is the variance-to-mean ratio of per-cycle injection counts:
	// 1 for Poisson-like traffic, >> 1 for phased/bursty workloads.
	VMR float64
	// PeakPerCycle is the largest single-cycle injection count.
	PeakPerCycle int64
	// HotNodes counts destinations receiving at least twice the uniform
	// share.
	HotNodes int
	// SourceImbalance is max/mean per-source injection (1 = uniform).
	SourceImbalance float64
}

// Analyze computes a trace's workload summary.
func Analyze(t *Trace) Analysis {
	a := Analysis{App: t.App, Records: len(t.Records), Rate: t.Rate()}
	if t.Cycles == 0 || len(t.Records) == 0 {
		return a
	}
	perCycle := make([]int64, t.Cycles)
	perDst := make([]int64, t.Nodes)
	perSrc := make([]int64, t.Cores)
	for _, r := range t.Records {
		perCycle[r.Cycle]++
		perDst[r.DstNode]++
		perSrc[r.SrcCore]++
	}
	var mv stats.MeanVar
	for _, c := range perCycle {
		mv.Add(float64(c))
		if c > a.PeakPerCycle {
			a.PeakPerCycle = c
		}
	}
	if mv.Mean() > 0 {
		a.VMR = mv.Var() / mv.Mean()
	}
	uniform := float64(len(t.Records)) / float64(t.Nodes)
	for _, c := range perDst {
		if float64(c) >= 2*uniform {
			a.HotNodes++
		}
	}
	var maxSrc int64
	for _, c := range perSrc {
		if c > maxSrc {
			maxSrc = c
		}
	}
	meanSrc := float64(len(t.Records)) / float64(t.Cores)
	if meanSrc > 0 {
		a.SourceImbalance = float64(maxSrc) / meanSrc
	}
	return a
}

// Table renders workload summaries for a set of traces.
func AnalysisTable(analyses []Analysis) *stats.Table {
	t := stats.NewTable("Workload character",
		"app", "records", "rate(pkt/cyc/core)", "VMR", "peak/cycle", "hot nodes", "src imbalance")
	for _, a := range analyses {
		t.AddRow(a.App, a.Records, fmt.Sprintf("%.5f", a.Rate), fmt.Sprintf("%.1f", a.VMR),
			a.PeakPerCycle, a.HotNodes, fmt.Sprintf("%.2f", a.SourceImbalance))
	}
	return t
}
