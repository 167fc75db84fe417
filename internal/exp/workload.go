package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/ptrace"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// This file is the SLO reporting layer over generalized workloads: one
// run per (scheme, workload) point with the streaming span assembler
// armed, bucketing every measured delivered packet's exact end-to-end
// latency into the schedule phase it was injected in. Quantiles are
// computed per phase from exact integer latencies (stats.Histogram bins
// cycles exactly up to its cap), so a p999 here is the true 99.9th
// percentile of the measured population, not an interpolation.

// PhaseSLO is one schedule phase's latency population for one scheme.
type PhaseSLO struct {
	// Phase is the 1-based schedule segment index; From/To its resolved
	// half-open cycle window within the injection span.
	Phase    int
	From, To int64
	// Proc is the phase's arrival process in canonical spec form.
	Proc string
	// Spans counts the measured delivered packets injected in the phase.
	Spans int64
	// Mean and the quantiles summarize those packets' exact end-to-end
	// latencies in cycles.
	Mean                float64
	P50, P99, P999, Max int64
	// Attr is the phase's exact latency attribution (the same span
	// algebra the breakdown figures use), for consumers that want to know
	// *where* a phase's tail latency is spent.
	Attr ptrace.Attribution
}

// WorkloadSLO is the per-phase SLO report of one (scheme, workload) run.
type WorkloadSLO struct {
	Scheme core.Scheme
	Spec   string // canonical workload spec
	Result core.Result
	Phases []PhaseSLO
}

// RunWorkloadSLO simulates one workload point with the streaming
// assembler armed and returns its per-phase SLO report. The stream is
// digest-inert: Result matches RunPoint on the same point bit for bit.
// Reports are deterministic in (point, options) — same seed, same
// report — which TestWorkloadSLODeterminism pins.
func RunWorkloadSLO(p Point, opts Options) (WorkloadSLO, error) {
	if p.Workload == "" {
		return WorkloadSLO{}, fmt.Errorf("exp: point has no workload spec")
	}
	net, inj, err := buildPoint(p, opts)
	if err != nil {
		return WorkloadSLO{}, err
	}
	w := inj.Workload()
	inj.Prepare(opts.Window.Warmup + opts.Window.Measure)
	bounds := inj.Boundaries()
	hists := make([]*stats.Histogram, len(bounds))
	attrs := make([]ptrace.Attribution, len(bounds))
	for i := range hists {
		hists[i] = stats.NewHistogram(0)
	}
	st := ptrace.NewStream(ptrace.StreamConfig{OnSpan: func(s *ptrace.PacketSpan) error {
		if err := s.Validate(); err != nil {
			return err
		}
		seg := 0
		for seg < len(bounds)-1 && s.Injected >= bounds[seg] {
			seg++
		}
		// AddSpan filters to measured delivered spans; the histogram must
		// cover exactly the population the attribution aggregates.
		if attrs[seg].AddSpan(s, true) {
			hists[seg].Add(s.Latency())
		}
		return nil
	}})
	// A run that panics must not return while its last batch is still
	// being assembled: the callbacks write state the caller owns.
	defer st.Abort()
	net.SetTracer(st)
	res := inj.Run(net)
	if err := st.Close(); err != nil {
		return WorkloadSLO{}, fmt.Errorf("exp: streaming spans for %s: %w", p.Scheme, err)
	}
	slo := WorkloadSLO{Scheme: p.Scheme, Spec: w.String(), Result: res}
	from := int64(0)
	for i, to := range bounds {
		h := hists[i]
		// Render the phase's process as a canonical single-phase spec.
		proc := (&traffic.Workload{Segments: []traffic.Segment{{Frac: 1, Proc: w.Segments[i].Proc}}}).String()
		slo.Phases = append(slo.Phases, PhaseSLO{
			Phase: i + 1, From: from, To: to, Proc: proc,
			Spans: h.Count(), Mean: h.Mean(),
			P50: h.P50(), P99: h.P99(), P999: h.P999(), Max: h.Max(),
			Attr: attrs[i],
		})
		from = to
	}
	return slo, nil
}

// WorkloadSLOTable renders per-phase SLO reports as one table, one row
// per (scheme, phase).
func WorkloadSLOTable(spec string, slos []WorkloadSLO) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Per-phase latency SLOs (cycles) — workload %s", spec),
		"scheme", "phase", "cycles", "process", "packets", "mean", "p50", "p99", "p999", "max")
	for _, slo := range slos {
		for _, ph := range slo.Phases {
			t.AddRow(slo.Scheme.PaperName(),
				fmt.Sprintf("%d", ph.Phase),
				fmt.Sprintf("[%d,%d)", ph.From, ph.To),
				ph.Proc,
				fmt.Sprintf("%d", ph.Spans),
				fmt.Sprintf("%.1f", ph.Mean),
				fmt.Sprintf("%d", ph.P50),
				fmt.Sprintf("%d", ph.P99),
				fmt.Sprintf("%d", ph.P999),
				fmt.Sprintf("%d", ph.Max))
		}
	}
	return t
}

// workloadRowPoints are the workload row's points: the -workload preset
// or raw spec, canonicalised, under every scheme on -pattern.
func workloadRowPoints(_ Options, p Params) ([]Point, error) {
	pat, err := traffic.ByName(p.Pattern)
	var w *traffic.Workload
	if err == nil {
		w, _, err = traffic.PresetWorkload(p.Workload)
	}
	if err != nil {
		return nil, err
	}
	return workloadPoints("", w.String(), pat), nil
}

// renderWorkloads renders a workload row's runs: one per-phase SLO table
// for each workload, which runs under every scheme.
func renderWorkloads(out *Output, _ Params, points []Point, runs []WorkloadSLO) error {
	n := len(core.Schemes())
	for i := 0; i < len(points); i += n {
		if err := out.Tables(WorkloadSLOTable(points[i].Workload, runs[i:i+n])); err != nil {
			return err
		}
	}
	return nil
}

// workloadPoints is one workload under every registered scheme, in
// registry order. The canonical spec is the point's workload, so farm
// manifest keys identify workload points fully.
func workloadPoints(label, spec string, pattern traffic.Pattern) []Point {
	var points []Point
	for _, s := range core.Schemes() {
		points = append(points, Point{Scheme: s, Label: label, Pattern: pattern, Workload: spec})
	}
	return points
}

// workloadGridPoints builds the "slo" grid: every preset workload under
// every scheme, UR destinations, in (preset-major, scheme-minor) order,
// labelled with the preset name.
func workloadGridPoints() []Point {
	var points []Point
	for _, p := range traffic.PresetWorkloads() {
		spec := traffic.MustParseWorkload(p.Spec).String()
		points = append(points, workloadPoints(p.Name, spec, traffic.UniformRandom{})...)
	}
	return points
}
