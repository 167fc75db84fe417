package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/ptrace"
	"photon/internal/stats"
	"photon/internal/traffic"
	"photon/internal/twin"
)

// RunStreamedPoint simulates one point with the streaming assembler
// armed: each span is validated and folded into the attribution (measured
// delivered spans, as Aggregate(tr, true) on a batch trace of the run)
// when it completes, then dropped, so memory is bounded by the live
// packets, not the run length. tee configures the stream; its OnSpan, if
// set, gets each span after that fold. The returned Stream carries the
// memory stats (MaxLive, Flushed). Result matches RunPoint bit for bit.
func RunStreamedPoint(p Point, opts Options, tee ptrace.StreamConfig) (core.Result, ptrace.Attribution, *ptrace.Stream, error) {
	net, inj, err := buildPoint(p, opts)
	if err != nil {
		return core.Result{}, ptrace.Attribution{}, nil, err
	}
	var attr ptrace.Attribution
	cfg := tee
	cfg.OnSpan = func(s *ptrace.PacketSpan) error {
		if err := s.Validate(); err != nil {
			return err
		}
		attr.AddSpan(s, true)
		if tee.OnSpan != nil {
			return tee.OnSpan(s)
		}
		return nil
	}
	st := ptrace.NewStream(cfg)
	// A run that panics must not return while its last batch is still
	// being assembled: the callbacks write state the caller owns.
	defer st.Abort()
	net.SetTracer(st)
	res := inj.Run(net)
	if err := st.Close(); err != nil {
		return core.Result{}, ptrace.Attribution{}, nil, fmt.Errorf("exp: streaming trace for %s: %w", p.Scheme, err)
	}
	return res, attr, st, nil
}

// ExactBreakdownRow is one scheme's exact latency attribution at an
// operating point: mean cycles per measured delivered packet in each
// span phase. Every column is an exact per-packet sum, and the columns
// add up to Total by construction (the span algebra guarantees it per
// packet).
type ExactBreakdownRow struct {
	// Phases holds mean cycles per measured delivered packet, by phase.
	Phases [ptrace.NumPhases]float64
	// Setaside is mean setaside-slot residency (overlaps the flight and
	// handshake phases; not part of the Total sum).
	Setaside float64
	// Total is mean end-to-end latency — equal to Result.AvgLatency.
	Total float64
	// Attr is the underlying aggregate (raw integer sums), for consumers
	// that need different denominators (e.g. remote-only averages).
	Attr ptrace.Attribution
	// Result is the run's ordinary result; its Digest matches the
	// untraced run of the same point bit for bit.
	Result core.Result
}

// ExactBreakdownPoint measures one scheme's exact latency attribution
// under UR at the given load — the single-point unit ExactBreakdown and
// the twin differential battery (verify -twin) share.
func ExactBreakdownPoint(s core.Scheme, load float64, opts Options) (ExactBreakdownRow, error) {
	res, attr, _, err := RunStreamedPoint(Point{Scheme: s, Pattern: traffic.UniformRandom{}, Rate: load}, opts, ptrace.StreamConfig{})
	if err != nil {
		return ExactBreakdownRow{}, err
	}
	row := ExactBreakdownRow{Attr: attr, Result: res, Total: attr.AvgTotal()}
	if attr.Spans > 0 {
		for k := 0; k < ptrace.NumPhases; k++ {
			row.Phases[k] = attr.AvgPhase(ptrace.PhaseKind(k))
		}
		row.Setaside = float64(attr.Setaside) / float64(attr.Spans)
	}
	return row, nil
}

// ExactBreakdown measures the exact latency attribution of every scheme
// under UR at the given load, with the analytical twin's predicted mean
// and utilization alongside for an at-a-glance model-vs-measurement
// check.
func ExactBreakdown(load float64, opts Options) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Exact latency attribution (cycles) at UR %.2f pkt/cycle/core", load),
		"scheme", "pipeline", "queue", "token-wait", "flight", "hs-wait",
		"retx-wait", "circulation", "eject", "total", "(setaside)", "twin-mean", "twin-util")
	for _, s := range core.Schemes() {
		row, err := ExactBreakdownPoint(s, load, opts)
		if err != nil {
			return nil, err
		}
		twinMean, twinUtil := "-", "-"
		if model, err := twin.NewDefault(s); err == nil {
			p := model.Predict(load)
			twinMean = fmt.Sprintf("%.1f", p.Mean)
			if p.Diverged {
				twinMean += "*" // outside the validity envelope: extrapolation
			}
			twinUtil = fmt.Sprintf("%.2f", p.Utilization)
		}
		t.AddRow(s.PaperName(),
			fmt.Sprintf("%.1f", row.Phases[ptrace.PhasePipeline]),
			fmt.Sprintf("%.1f", row.Phases[ptrace.PhaseQueue]),
			fmt.Sprintf("%.1f", row.Phases[ptrace.PhaseTokenWait]),
			fmt.Sprintf("%.1f", row.Phases[ptrace.PhaseFlight]),
			fmt.Sprintf("%.1f", row.Phases[ptrace.PhaseHandshakeWait]),
			fmt.Sprintf("%.1f", row.Phases[ptrace.PhaseRetxWait]),
			fmt.Sprintf("%.1f", row.Phases[ptrace.PhaseCirculation]),
			fmt.Sprintf("%.1f", row.Phases[ptrace.PhaseEject]),
			fmt.Sprintf("%.1f", row.Total),
			fmt.Sprintf("%.1f", row.Setaside),
			twinMean, twinUtil)
	}
	return t, nil
}
