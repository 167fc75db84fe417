package check

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/ptrace"
	"photon/internal/sim"
	"photon/internal/twin"
)

// twinBattery is the twin-vs-simulator differential: for every scheme,
// the analytical twin's per-phase mean predictions are compared against
// the exact span attribution (exp.ExactBreakdownPoint) at utilisation
// anchors inside the twin's documented validity envelope (utilisation
// <= 0.5 of the scheme's own twin-estimated saturation rate). Any engine
// change that shifts real phase latencies away from the closed forms, or
// any twin edit that drifts from the engine, fails loudly here. The full
// grid runs the same anchors over the default window: tighter sampling
// noise, several times the wall clock.
var twinBattery = &Battery{
	name: "twin", title: "analytical twin vs exact spans",
	headers: []string{"scheme", "family", "util", "rate", "twin-mean", "exact-mean", "worst-phase", "pred", "obs", "verdict"},
	grid: func(quick bool) Grid {
		g := Grid{Schemes: core.Schemes(), Utils: []float64{0.2, 0.35, 0.5}, Window: sim.ShortWindow()}
		if !quick {
			g.Window = sim.DefaultWindow()
		}
		return g
	},
	check: twinBand.verify,
	cross: twinCross,
	row: func(p Result) []any {
		w := p.Twin.Worst
		return []any{p.Scheme.String(), p.Twin.Family,
			fmt.Sprintf("%.2f", p.Util), fmt.Sprintf("%.4f", p.Rate),
			fmt.Sprintf("%.2f", p.Twin.Pred.Mean), fmt.Sprintf("%.2f", p.Twin.Obs.Total),
			w.Phase, fmt.Sprintf("%.2f", w.Pred), fmt.Sprintf("%.2f", w.Obs), mark(p.Pass())}
	},
}

// band is the twin battery's per-phase tolerance: a phase passes when its
// error is within max(rel × measured, abs) cycles. The absolute floor
// covers sub-cycle phases (slot token waits, near-empty queues), which sit
// below the simulator's own discretisation, where a relative band is
// meaningless.
type band struct{ rel, abs float64 }

// twinBand is the band the twin battery holds every phase to.
var twinBand = band{rel: 0.10, abs: 0.75}

func (b band) String() string { return fmt.Sprintf("max(%.3g%%, %.3g)", b.rel*100, b.abs) }

// compare judges one phase's prediction against its measurement and
// scores the error against the band's width (0 for a zero-width band).
func (b band) compare(phase string, pred, obs float64) (ph TwinPhase, score float64) {
	width := max(b.rel*obs, b.abs)
	ph = TwinPhase{Phase: phase, Pred: pred, Obs: obs, Err: pred - obs}
	ph.Pass = ph.Err <= width && -ph.Err <= width
	if width != 0 {
		score = max(ph.Err, -ph.Err) / width
	}
	return ph, score
}

// TwinPhase is one phase's prediction-vs-measurement verdict.
type TwinPhase struct {
	Phase string
	Pred  float64
	Obs   float64
	// Err is the signed absolute error in cycles.
	Err  float64
	Pass bool
}

// TwinVerdict is a twin point's comparison: the twin's prediction, the
// exact measurement, every phase's verdict (ptrace order) and the mean
// end-to-end one under the same band, and the worst of them by
// band-normalised error (the table shows it, a failure line names it).
type TwinVerdict struct {
	Family string
	Pred   twin.Prediction
	Obs    exp.ExactBreakdownRow
	Phases []TwinPhase
	Total  TwinPhase
	Worst  TwinPhase
}

var phaseNames = [ptrace.NumPhases]string{
	ptrace.PhasePipeline:      "pipeline",
	ptrace.PhaseQueue:         "queue",
	ptrace.PhaseTokenWait:     "token-wait",
	ptrace.PhaseFlight:        "flight",
	ptrace.PhaseHandshakeWait: "hs-wait",
	ptrace.PhaseRetxWait:      "retx-wait",
	ptrace.PhaseCirculation:   "circulation",
	ptrace.PhaseEject:         "eject",
}

// verify compares the twin's prediction against the exact attribution at
// the point's utilisation anchor. The point fails when the twin reports
// divergence inside the envelope, or when any phase or the total falls
// outside the band.
func (b band) verify(r *run, j job) (Result, error) {
	m, err := twin.NewDefault(j.Scheme)
	if err != nil {
		return Result{}, fmt.Errorf("twin: %w", err)
	}
	p := Result{Point: j.Point}
	p.Rate = p.Util * m.SaturationRate()
	pred := m.Predict(p.Rate)
	obs, err := exp.ExactBreakdownPoint(p.Scheme, p.Rate, exp.Options{Window: r.Window, Seed: r.seed})
	if err != nil {
		return p, err
	}
	tv := &TwinVerdict{Family: m.Family(), Pred: pred, Obs: obs}
	within, worst := true, -1.0
	keep := func(ph TwinPhase, score float64) TwinPhase {
		within = within && ph.Pass
		// >=: on a tie the later phase, and the total last of all, is the worst.
		if score >= worst {
			tv.Worst, worst = ph, score
		}
		return ph
	}
	for k := range ptrace.NumPhases {
		tv.Phases = append(tv.Phases, keep(b.compare(phaseNames[k], pred.Phases[k], obs.Phases[k])))
	}
	tv.Total = keep(b.compare("total", pred.Mean, obs.Total))
	p.Digest, p.Twin = obs.Result.Digest, tv
	w := tv.Worst
	p.Checks = []Check{
		checked("envelope", !pred.Diverged, func() string {
			return fmt.Sprintf("twin self-reports divergence at utilization %.2f — inside the battery envelope", p.Util)
		}),
		checked("band", within, func() string {
			return fmt.Sprintf("%s pred %.2f vs exact %.2f (err %+.2f, band %s)", w.Phase, w.Pred, w.Obs, w.Err, b)
		}),
	}
	return p, nil
}

// twinCross runs the model-side cross checks, no simulation needed: the
// divergence flag must trip strictly inside the twin's own saturation
// estimate (the planner's trigger for falling back to simulation), and
// the capacity inverter must honor its budget on the model's own terms.
func twinCross(r *run, _ []Result) ([]Check, error) {
	var cross []Check
	for _, s := range r.Schemes {
		m, err := twin.NewDefault(s)
		if err != nil {
			return nil, fmt.Errorf("check: twin: %w", err)
		}
		p := m.Predict(m.SaturationRate() * 0.999)
		budget := m.ZeroLoadLatency() * 1.5
		inv := m.CapacityFor(budget, false)
		cross = append(cross,
			checked(fmt.Sprintf("twin %s divergence before saturation", s), p.Diverged, func() string {
				return fmt.Sprintf("Predict at 0.999x saturation (rate %.4f) did not set Diverged", p.Rate)
			}),
			checked(fmt.Sprintf("twin %s capacity inversion honors budget", s), !(inv.BudgetBound && inv.Prediction.Mean > budget+1e-6), func() string {
				return fmt.Sprintf("CapacityFor returned rate %.4f with mean %.2f above the %.2f budget",
					inv.Rate, inv.Prediction.Mean, budget)
			}))
	}
	return cross, nil
}
