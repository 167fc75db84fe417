package check

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/ptrace"
	"photon/internal/twin"
)

// TwinBattery configures the twin-vs-simulator differential: for every
// scheme, the analytical twin's per-phase mean predictions are compared
// against the exact span attribution (exp.ExactBreakdownPoint) at a set
// of utilization anchors inside the twin's validity envelope. Any engine
// change that shifts real phase latencies away from the closed forms —
// or any twin edit that drifts from the engine — fails loudly here.
type TwinBattery struct {
	// Schemes under test (default: all registered schemes).
	Schemes []core.Scheme
	// Utilizations are the rate anchors as fractions of each scheme's own
	// twin-estimated saturation rate (default 0.2, 0.35, 0.5 — the
	// documented validity envelope is utilization <= 0.5).
	Utilizations []float64
	// Opts drives the exact traced runs (window, seed).
	Opts exp.Options
	// RelTol is the per-phase relative error band (default 0.10).
	RelTol float64
	// AbsTol is the per-phase absolute floor in cycles (default 0.75):
	// sub-cycle phases (slot token waits, near-empty queues) sit below the
	// simulator's own discretization granularity, where a relative band is
	// meaningless.
	AbsTol float64
}

// QuickTwinBattery is the CI-sized differential: all schemes at the
// three envelope anchors over the quick window.
func QuickTwinBattery(seed uint64) TwinBattery {
	opts := exp.QuickOptions()
	opts.Seed = seed
	return TwinBattery{
		Utilizations: []float64{0.2, 0.35, 0.5},
		Opts:         opts,
		RelTol:       0.10,
		AbsTol:       0.75,
	}
}

// FullTwinBattery runs the same anchors over the standard window —
// tighter sampling noise, several times the wall clock.
func FullTwinBattery(seed uint64) TwinBattery {
	b := QuickTwinBattery(seed)
	b.Opts = exp.DefaultOptions()
	b.Opts.Seed = seed
	return b
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

// TwinPoint is the differential verdict for one (scheme, utilization).
type TwinPoint struct {
	Scheme      core.Scheme
	Family      string
	Utilization float64
	Rate        float64

	Pred twin.Prediction
	Obs  exp.ExactBreakdownRow

	// Phases holds every phase verdict (ptrace order), Total the mean
	// end-to-end comparison under the same band.
	Phases []TwinPhase
	Total  TwinPhase

	// Detail carries the first failure description.
	Detail string
}

// Pass reports whether every phase and the total are inside the band.
func (p TwinPoint) Pass() bool {
	if !p.Total.Pass {
		return false
	}
	for _, ph := range p.Phases {
		if !ph.Pass {
			return false
		}
	}
	return p.Detail == ""
}

// worst returns the phase with the largest band-normalized error.
func (p TwinPoint) worst() TwinPhase {
	w := p.Total
	wScore := 0.0
	score := func(ph TwinPhase, rel, abs float64) float64 {
		band := rel * ph.Obs
		if band < abs {
			band = abs
		}
		if band == 0 {
			return 0
		}
		e := ph.Err
		if e < 0 {
			e = -e
		}
		return e / band
	}
	for _, ph := range append(append([]TwinPhase{}, p.Phases...), p.Total) {
		if s := score(ph, 0.10, 0.75); s >= wScore {
			w, wScore = ph, s
		}
	}
	return w
}

func (p TwinPoint) id() (core.Scheme, string, uint64) {
	return p.Scheme, fmt.Sprintf("U=%.2f@%.4f", p.Utilization, p.Rate), p.Obs.Result.Digest
}

// failure is Detail, or failing that the worst phase against its band.
func (p TwinPoint) failure() string {
	if p.Detail != "" {
		return p.Detail
	}
	w := p.worst()
	return fmt.Sprintf("%s pred %.2f vs exact %.2f (err %+.2f, band max(10%%, 0.75))", w.Phase, w.Pred, w.Obs, w.Err)
}

// row shows predicted and measured means, the worst phase by
// band-normalized error, and the verdict.
func (p TwinPoint) row() []any {
	w := p.worst()
	return []any{p.Scheme.String(), p.Family,
		fmt.Sprintf("%.2f", p.Utilization),
		fmt.Sprintf("%.4f", p.Rate),
		fmt.Sprintf("%.2f", p.Pred.Mean),
		fmt.Sprintf("%.2f", p.Obs.Total),
		w.Phase,
		fmt.Sprintf("%.2f", w.Pred),
		fmt.Sprintf("%.2f", w.Obs),
		mark(p.Pass())}
}

var twinLayout = layout{"twin", "analytical twin vs exact spans", []string{
	"scheme", "family", "util", "rate", "twin-mean", "exact-mean", "worst-phase", "pred", "obs", "verdict"}}

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

// RunTwin executes the twin differential battery: per-(scheme,
// utilization) phase comparisons plus model-side cross checks (the
// divergence flag must trip before the twin's own saturation estimate,
// and no battery anchor may sit in the self-reported divergence regime).
func RunTwin(b TwinBattery) (*Report[TwinPoint], error) {
	if len(b.Schemes) == 0 {
		b.Schemes = core.Schemes()
	}
	def := QuickTwinBattery(b.Opts.Seed)
	if len(b.Utilizations) == 0 {
		b.Utilizations = def.Utilizations
	}
	if b.Opts.Window.Total() == 0 {
		b.Opts = def.Opts
	}
	if b.RelTol == 0 {
		b.RelTol = def.RelTol
	}
	if b.AbsTol == 0 {
		b.AbsTol = def.AbsTol
	}

	models := make(map[core.Scheme]*twin.Model, len(b.Schemes))
	for _, s := range b.Schemes {
		m, err := twin.NewDefault(s)
		if err != nil {
			return nil, fmt.Errorf("check: twin: %w", err)
		}
		models[s] = m
	}

	type job struct {
		scheme core.Scheme
		util   float64
	}
	var jobs []job
	for _, s := range b.Schemes {
		for _, u := range b.Utilizations {
			jobs = append(jobs, job{s, u})
		}
	}
	points, err := fanOut(jobs, func(j job) string {
		return fmt.Sprintf("twin %s U=%.2f", j.scheme, j.util)
	}, func(j job) (TwinPoint, error) {
		m := models[j.scheme]
		rate := j.util * m.SaturationRate()
		pred := m.Predict(rate)
		obs, err := exp.ExactBreakdownPoint(j.scheme, rate, b.Opts)
		if err != nil {
			return TwinPoint{}, err
		}
		p := TwinPoint{
			Scheme:      j.scheme,
			Family:      m.Family(),
			Utilization: j.util,
			Rate:        rate,
			Pred:        pred,
			Obs:         obs,
		}
		if pred.Diverged {
			p.Detail = fmt.Sprintf("twin self-reports divergence at utilization %.2f — inside the battery envelope", j.util)
		}
		band := func(obs float64) float64 {
			if rel := b.RelTol * obs; rel > b.AbsTol {
				return rel
			}
			return b.AbsTol
		}
		for k := 0; k < ptrace.NumPhases; k++ {
			ph := TwinPhase{
				Phase: phaseNames[k],
				Pred:  pred.Phases[k],
				Obs:   obs.Phases[k],
				Err:   pred.Phases[k] - obs.Phases[k],
			}
			ph.Pass = ph.Err <= band(ph.Obs) && -ph.Err <= band(ph.Obs)
			p.Phases = append(p.Phases, ph)
		}
		p.Total = TwinPhase{Phase: "total", Pred: pred.Mean, Obs: obs.Total, Err: pred.Mean - obs.Total}
		p.Total.Pass = p.Total.Err <= band(p.Total.Obs) && -p.Total.Err <= band(p.Total.Obs)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report[TwinPoint]{Points: points, layout: twinLayout}

	// Model-side cross checks, no simulation needed: the divergence flag
	// must trip strictly inside the twin's own saturation estimate (the
	// planner's trigger for falling back to simulation), and the capacity
	// inverter must honor its budget on the model's own terms.
	for _, s := range b.Schemes {
		m := models[s]
		c := Check{Name: fmt.Sprintf("twin %s divergence before saturation", s), Pass: true}
		if p := m.Predict(m.SaturationRate() * 0.999); !p.Diverged {
			c.Pass = false
			c.Detail = fmt.Sprintf("Predict at 0.999x saturation (rate %.4f) did not set Diverged", p.Rate)
		}
		rep.Cross = append(rep.Cross, c)

		cap := m.CapacityFor(m.ZeroLoadLatency()*1.5, false)
		cc := Check{Name: fmt.Sprintf("twin %s capacity inversion honors budget", s), Pass: true}
		if cap.BudgetBound && cap.Prediction.Mean > m.ZeroLoadLatency()*1.5+1e-6 {
			cc.Pass = false
			cc.Detail = fmt.Sprintf("CapacityFor returned rate %.4f with mean %.2f above the %.2f budget",
				cap.Rate, cap.Prediction.Mean, m.ZeroLoadLatency()*1.5)
		}
		rep.Cross = append(rep.Cross, cc)
	}
	return rep, nil
}
