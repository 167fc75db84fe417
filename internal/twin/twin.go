// Package twin is the analytical queueing twin of the cycle engine: a
// closed-form model of each scheme family's per-phase mean latency under
// uniform-random Bernoulli traffic, validated against the simulator's
// exact span attribution (exp.ExactBreakdown) by the twin battery (verify -twin).
//
// The twin answers in microseconds what a sweep answers in minutes —
// "what offered load can N nodes sustain under scheme X within a latency
// budget" — and doubles as a standing regression over the engine: any
// change that shifts real phase latencies away from the model fails the
// differential battery loudly.
//
// # Model
//
// A packet's end-to-end latency decomposes into the exact span phases of
// internal/ptrace. The twin predicts each phase's mean from the scheme's
// registry traits and the ring geometry:
//
//   - pipeline: the electrical injection pipeline, RouterPipeline cycles
//     exactly (UR traffic never delivers node-locally).
//   - queue: discrete-time M/G/1 (Geo/G/1) waiting time of the per-core
//     output queue, Wq = λ(E[S²]-E[S]) / (2(1-λE[S])), where the service
//     time S is the head-of-line residency of the scheme family.
//   - token-wait: the family's arbitration model (see below).
//   - flight: the geometric mean flight E[R+1-Segment(p)] over uniform
//     sender offsets, plus a contention drift term for relayed global
//     tokens (capture sites cluster just downstream of the previous
//     release as load grows).
//   - hs-wait / retx-wait / circulation: zero below saturation — the
//     paper keeps drop-and-retransmission rates under 1%, and the twin's
//     validity envelope (utilization <= 0.7) is well inside that regime.
//   - eject: EjectLatency cycles exactly (the ring lands at most one
//     packet per channel per cycle and the home buffer drains one per
//     cycle, so the buffer never queues on fault-free UR runs).
//
// Head-of-line service times per family:
//
//   - credit schemes and setaside handshake schemes free the head at
//     launch: S = W_tok + 1.
//   - hold-head handshake schemes pin the head until its ACK returns:
//     S = W_tok + R + 1 (+1 for global schemes, whose freed queue must
//     re-capture the relayed token through a fresh arbitration pass).
//
// Token-wait models:
//
//   - relayed global token: W = (R+1)/2 residual wait for the free token
//     plus an M/G/1-style contention term ((R+2)/2)·ρ/(1-ρ) in the
//     channel load ρ; hold-head schemes self-throttle (a blocked head
//     does not compete for the token), which the twin captures with a
//     fixed point in the requester occupancy.
//   - distributed slot tokens: one fresh token per cycle means the
//     zero-load wait is the single-cycle phase alignment, plus a small
//     calibrated contention slope (slot capture conflicts within a
//     segment).
//
// Saturation (per-core rate the scheme can sustain):
//
//   - credit-global: credits are reimbursed only when the token passes
//     home, so a full loop moves at most B credits and spends
//     R + B + (E[Seg]-1) cycles doing it.
//   - credit-slot: a credit's turnaround is launch-to-eject, R+2 cycles,
//     degraded by a calibrated token-expiry/fairness efficiency.
//   - handshake hold-head: the queue's own stability bound 1/E[S] at the
//     saturated token wait.
//   - handshake-global setaside: the relayed token's capture bandwidth,
//     per/(per + R + 1) per channel.
//   - handshake-slot setaside and circulation: the receiver buffer's
//     drop-retransmit equilibrium B/(R+2) per channel.
//
// Calibration: the structural forms above are derived from the geometry;
// the three dimensionless slopes (slot contention, global flight drift,
// slot-token efficiency) are calibrated once against the simulator at the
// paper's default configuration and recorded here as constants. The
// validity envelope and the per-phase error bands are documented in
// DESIGN.md ("Analytical twin") and enforced by the twin battery.
package twin

import (
	"fmt"
	"math"

	"photon/internal/core"
	"photon/internal/ptrace"
	"photon/internal/router"
)

// family is the analytical model class of a scheme. It is derived from
// the scheme's registry traits (arbitration grain, flow control, send
// policy), not from the family string, so a newly registered scheme maps
// onto a model — or fails loudly — by its behaviour.
type family int

const (
	creditGlobal family = iota
	creditSlot
	handshakeGlobalHold
	handshakeGlobalSetaside
	handshakeSlotHold
	handshakeSlotSetaside
	slotCirculation
)

func (f family) String() string {
	switch f {
	case creditGlobal:
		return "credit-global"
	case creditSlot:
		return "credit-slot"
	case handshakeGlobalHold:
		return "handshake-global-hold"
	case handshakeGlobalSetaside:
		return "handshake-global-setaside"
	case handshakeSlotHold:
		return "handshake-slot-hold"
	case handshakeSlotSetaside:
		return "handshake-slot-setaside"
	case slotCirculation:
		return "slot-circulation"
	default:
		return "family?"
	}
}

// Calibrated dimensionless constants (paper defaults: 64 nodes x 4 cores,
// R=8, 8 credits, 4 setaside slots). Each is tied to one structural term;
// see the package comment for the derivation sketch.
const (
	// globalContention scales the relayed token's M/G/1 contention term:
	// W = (R+1)/2 + globalContention·(R+2)/2 · ρ/(1-ρ).
	globalContention = 1.0
	// setasideTokenDamping discounts the channel load a setaside-global
	// scheme offers to its token (batched holds shorten the scan).
	setasideTokenDamping = 0.9
	// slotContentionSlope is the per-(R+2)-cycle contention slope of
	// distributed slot tokens: W = 1 + slack + slope·(R+2)·ρ/(1-ρ).
	slotContentionSlope = 0.12
	// slotCreditSlack is the credit-slot zero-load wait above the single
	// phase-alignment cycle (emission gating on the credit return).
	slotCreditSlack = 0.1
	// holdHeadSlotBase and holdHeadSlotSlope model the hold-head slot
	// token wait, which *falls* with load: a growing share of launches are
	// follower promotions captured in the very cycle their ACK freed the
	// head. W = clamp(base - slope·ρ, min, base).
	holdHeadSlotBase  = 0.92
	holdHeadSlotSlope = 1.1
	holdHeadSlotMin   = 0.2
	// globalFlightDrift is the per-channel-load flight lengthening of
	// relayed-token schemes (captures cluster just downstream of the
	// previous release, where FlightToHome is longest).
	globalFlightDrift = 2.2
	// slotTokenEfficiency discounts the credit-slot turnaround capacity
	// for tokens that expire uncaptured and fairness yields.
	slotTokenEfficiency = 0.93
	// DivergenceUtilization is the utilization above which the twin
	// self-reports divergence: the closed forms assume queueing terms are
	// perturbations of the zero-load pipeline, which stops holding as the
	// knee approaches. The twin battery validates only below this; cmd/plan
	// falls back to simulation beyond it.
	DivergenceUtilization = 0.7
	// divergenceQueueRho is the per-queue occupancy that independently
	// trips the divergence flag (the Geo/G/1 denominator blows up).
	divergenceQueueRho = 0.85
)

// Model is the analytical twin of one (scheme, configuration) pair under
// uniform-random Bernoulli traffic.
type Model struct {
	fam family
	cfg core.Config

	n, m, r, per int
	credits      int // BufferDepth: credit count / accept threshold
	setaside     int

	eSeg float64 // mean token segment index over uniform sender offsets
	f0   float64 // zero-load mean flight, R+1-eSeg
	sat  float64 // per-core saturation rate estimate
}

// New builds the twin for a scheme over an explicit configuration. The
// configuration must validate; the model reads its geometry (Nodes,
// CoresPerNode, RoundTrip), depths (BufferDepth, SetasideSize) and
// latencies (RouterPipeline, EjectLatency).
func New(scheme core.Scheme, cfg core.Config) (*Model, error) {
	cfg.Scheme = scheme
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, ok := core.LookupProtocol(scheme)
	if !ok {
		return nil, fmt.Errorf("twin: unknown scheme %d", int(scheme))
	}
	fam, err := classify(spec)
	if err != nil {
		return nil, err
	}
	m := &Model{
		fam:      fam,
		cfg:      cfg,
		n:        cfg.Nodes,
		m:        cfg.CoresPerNode,
		r:        cfg.RoundTrip,
		per:      cfg.Nodes / cfg.RoundTrip,
		credits:  cfg.BufferDepth,
		setaside: cfg.SetasideSize,
	}
	// E[Segment(p)] over uniform sender offsets p in 1..N-1; the flight to
	// home is R+1-Segment(p) (ring.Geometry's collision-free invariant).
	sum := 0
	for p := 1; p < m.n; p++ {
		sum += (p + m.per - 1) / m.per
	}
	m.eSeg = float64(sum) / float64(m.n-1)
	m.f0 = float64(m.r+1) - m.eSeg
	m.sat = m.saturation()
	return m, nil
}

// NewDefault builds the twin for a scheme at the paper's default
// configuration — the configuration the calibration constants were fitted
// on and the differential battery validates.
func NewDefault(scheme core.Scheme) (*Model, error) {
	return New(scheme, core.DefaultConfig(scheme))
}

// classify maps registry traits onto an analytical family.
func classify(spec core.ProtocolSpec) (family, error) {
	switch {
	case spec.Circulating:
		return slotCirculation, nil
	case spec.CreditBased && spec.Global:
		return creditGlobal, nil
	case spec.CreditBased:
		return creditSlot, nil
	case spec.Handshake && spec.Global && spec.SendPolicy == router.HoldHead:
		return handshakeGlobalHold, nil
	case spec.Handshake && spec.Global && spec.SendPolicy == router.Setaside:
		return handshakeGlobalSetaside, nil
	case spec.Handshake && spec.SendPolicy == router.HoldHead:
		return handshakeSlotHold, nil
	case spec.Handshake && spec.SendPolicy == router.Setaside:
		return handshakeSlotSetaside, nil
	default:
		return 0, fmt.Errorf("twin: no analytical model for scheme %q (traits global=%v handshake=%v credit=%v policy=%v) — register one in internal/twin",
			spec.Name, spec.Global, spec.Handshake, spec.CreditBased, spec.SendPolicy)
	}
}

// Family returns the analytical family name used for the scheme.
func (m *Model) Family() string { return m.fam.String() }

// SaturationRate returns the twin's estimate of the highest sustainable
// offered load, in packets/cycle/core — the denominator of Utilization.
func (m *Model) SaturationRate() float64 { return m.sat }

// ZeroLoadLatency returns the rate→0 limit of the predicted mean latency:
// pipeline + zero-load token wait + mean flight + eject.
func (m *Model) ZeroLoadLatency() float64 {
	return float64(m.cfg.RouterPipeline) + m.tokenWait(0) + m.f0 + float64(m.cfg.EjectLatency)
}

// Prediction is the twin's closed-form estimate at one offered load.
type Prediction struct {
	// Rate is the offered load in packets/cycle/core.
	Rate float64
	// Utilization is Rate over the twin's saturation-rate estimate.
	Utilization float64
	// ChannelLoad is the per-channel packet rate (Rate x CoresPerNode
	// under uniform-random traffic).
	ChannelLoad float64
	// Phases holds the predicted mean cycles per delivered packet by span
	// phase, aligned with ptrace.PhaseKind.
	Phases [ptrace.NumPhases]float64
	// Mean is the predicted mean end-to-end latency (the phase sum).
	Mean float64
	// P99 is a coarse tail estimate (see P99 docs); cmd/plan uses it with
	// the divergence fallback, the differential battery does not check it.
	P99 float64
	// QueueOccupancy is the predicted mean per-core queue+head occupancy
	// via Little's law on the queueing phases.
	QueueOccupancy float64
	// PacketsInFlight is Little's law applied to the whole network:
	// offered packets/cycle x mean latency.
	PacketsInFlight float64
	// Diverged reports that the operating point is outside the twin's
	// validity envelope (utilization or queue occupancy too close to the
	// knee); predictions are extrapolations there and cmd/plan switches
	// to simulation.
	Diverged bool
}

// Predict evaluates the twin at an offered load (packets/cycle/core).
func (m *Model) Predict(rate float64) Prediction {
	if rate < 0 {
		rate = 0
	}
	p := Prediction{
		Rate:        rate,
		ChannelLoad: rate * float64(m.m),
		Utilization: rate / m.sat,
	}
	wTok := m.tokenWait(rate)
	s, varS := m.service(wTok)
	rhoQ := rate * s
	wQ := geoG1Wait(rate, s, varS)
	p.Phases[ptrace.PhasePipeline] = float64(m.cfg.RouterPipeline)
	p.Phases[ptrace.PhaseQueue] = wQ
	p.Phases[ptrace.PhaseTokenWait] = wTok
	p.Phases[ptrace.PhaseFlight] = m.flight(rate)
	p.Phases[ptrace.PhaseEject] = float64(m.cfg.EjectLatency)
	// Handshake, retransmit and circulation phases are zero in the
	// validity envelope: the paper keeps drops under 1% below saturation,
	// and utilization 0.7 is well below the drop knee for every family.
	for _, k := range []ptrace.PhaseKind{ptrace.PhaseHandshakeWait, ptrace.PhaseRetxWait, ptrace.PhaseCirculation} {
		p.Phases[k] = 0
	}
	for _, v := range p.Phases {
		p.Mean += v
	}
	p.QueueOccupancy = rate * (wQ + s)
	p.PacketsInFlight = rate * float64(m.m*m.n) * p.Mean
	p.P99 = m.p99(p)
	p.Diverged = p.Utilization > DivergenceUtilization || rhoQ > divergenceQueueRho
	return p
}

// geoG1Wait is the discrete-time M/G/1 (Geo/G/1) mean waiting time for
// Bernoulli arrivals at rate lam and service S with variance varS:
// Wq = lam·(E[S²]-E[S]) / (2(1-ρ)). The denominator is floored so the
// prediction stays finite past the knee; Predict flags divergence well
// before the floor matters.
func geoG1Wait(lam, s, varS float64) float64 {
	rho := lam * s
	if rho > 0.97 {
		rho = 0.97
	}
	es2 := s*s + varS
	w := lam * (es2 - s) / (2 * (1 - rho))
	if w < 0 {
		return 0
	}
	return w
}

// tokenWait returns the family's mean token/arbitration wait at an
// offered load (head-ready to first launch).
func (m *Model) tokenWait(rate float64) float64 {
	r := float64(m.r)
	base := (r + 1) / 2
	cG := globalContention * (r + 2) / 2
	lch := rate * float64(m.m)
	switch m.fam {
	case creditGlobal:
		rho := clamp(lch, 0, 0.95)
		return base + cG*rho/(1-rho)
	case handshakeGlobalSetaside:
		rho := clamp(setasideTokenDamping*lch, 0, 0.95)
		return base + cG*rho/(1-rho)
	case handshakeGlobalHold:
		// Blocked heads do not compete for the token: the requester
		// occupancy x is the fraction of a head's service spent waiting
		// (W of W+R+2), launch-capped at saturation. Fixed point
		// in W, converges in a handful of iterations.
		leff := math.Min(lch, m.sat*float64(m.m))
		w := base
		for i := 0; i < 64; i++ {
			x := clamp(leff*w/(w+r+2), 0, 0.95)
			next := base + cG*x/(1-x)
			if math.Abs(next-w) < 1e-9 {
				w = next
				break
			}
			w = next
		}
		return w
	case creditSlot:
		rho := clamp(lch, 0, 0.95)
		return 1 + slotCreditSlack + slotContentionSlope*(r+2)*rho/(1-rho)
	case handshakeSlotHold:
		leff := math.Min(lch, m.sat*float64(m.m))
		return clamp(holdHeadSlotBase-holdHeadSlotSlope*leff, holdHeadSlotMin, holdHeadSlotBase)
	case handshakeSlotSetaside, slotCirculation:
		rho := clamp(lch, 0, 0.95)
		return 1 + slotContentionSlope*(r+2)*rho/(1-rho)*0.875
	default:
		panic("twin: tokenWait of unknown family")
	}
}

// service returns the head-of-line service time S (and its variance) for
// the per-core output queue, given the token wait.
func (m *Model) service(wTok float64) (s, varS float64) {
	r := float64(m.r)
	varGlobal := r * r / 12 // token phase alignment, uniform over the loop
	switch m.fam {
	case creditGlobal, handshakeGlobalSetaside:
		return wTok + 1, varGlobal
	case handshakeGlobalHold:
		// The head is pinned for its ACK round trip: S = W + R + 1.
		// (The extra re-arbitration cycle a saturated queue pays appears
		// in the saturation bound, not here — below the knee the freed
		// head's successor usually arbitrates within the same wait.)
		return wTok + r + 1, varGlobal
	case handshakeSlotHold:
		return wTok + r + 1, 1
	case creditSlot, handshakeSlotSetaside, slotCirculation:
		return wTok + 1, 1
	default:
		panic("twin: service of unknown family")
	}
}

// flight returns the mean launch-to-home flight. Distributed slots are
// collision-free at the geometric mean; relayed global tokens drift
// upward with channel load as captures cluster downstream of the
// previous release.
func (m *Model) flight(rate float64) float64 {
	switch m.fam {
	case creditGlobal, handshakeGlobalSetaside, handshakeGlobalHold:
		lch := math.Min(rate, m.sat) * float64(m.m)
		return m.f0 + math.Min(globalFlightDrift*lch, 1.2)
	default:
		return m.f0
	}
}

// saturation estimates the per-core saturation rate from the family's
// binding capacity constraint (see the package comment).
func (m *Model) saturation() float64 {
	r := float64(m.r)
	mm := float64(m.m)
	b := float64(m.credits)
	switch m.fam {
	case creditGlobal:
		// B credits per token loop of R + B + (E[Seg]-1) cycles: the loop
		// flies R, holds B send cycles, and the last spent credit waits
		// the mean residual arc for reimbursement at home.
		return b / (r + b + m.eSeg - 1) / mm
	case creditSlot:
		// Credit turnaround launch-to-eject is R+2 cycles, discounted for
		// tokens that expire uncaptured and fairness yields.
		return slotTokenEfficiency * b / (r + 2) / mm
	case handshakeGlobalHold:
		// Queue stability at the saturated token wait: one packet per
		// W + R + 2 per queue. Joint fixed point with tokenWait.
		w := (r + 1) / 2
		for i := 0; i < 64; i++ {
			lch := mm / (w + r + 2)
			x := clamp(lch*w/(w+r+2), 0, 0.95)
			w = (r+1)/2 + globalContention*(r+2)/2*x/(1-x)
		}
		return 1 / (w + r + 2)
	case handshakeGlobalSetaside:
		// The relayed token's capture bandwidth: one capture per segment
		// arc, per/(per + R + 1) packets per channel cycle.
		return float64(m.per) / (float64(m.per) + r + 1) / mm
	case handshakeSlotHold:
		// Queue stability at the saturated (minimal) token wait.
		w := (holdHeadSlotBase + holdHeadSlotMin) / 2
		for i := 0; i < 32; i++ {
			lch := mm / (w + r + 1)
			w = clamp(holdHeadSlotBase-holdHeadSlotSlope*lch, holdHeadSlotMin, holdHeadSlotBase)
		}
		return 1 / (w + r + 1)
	case handshakeSlotSetaside, slotCirculation:
		// Receiver-buffer drop-retransmit equilibrium: the home buffer of
		// depth B drains one per cycle; past B/(R+2) per channel the
		// NACK-retransmit loop (R+2 cycles) stops adding goodput.
		sat := b / (r + 2) / mm
		if m.fam == handshakeSlotSetaside {
			// The setaside pool bounds un-ACKed launches per queue.
			if cap := float64(m.setaside) / (r + 2); cap < sat {
				sat = cap
			}
		}
		return sat
	default:
		panic("twin: saturation of unknown family")
	}
}

// p99 is a deliberately coarse tail estimate: the deterministic phases at
// their worst (full-loop flight), plus an exponential-tail multiplier on
// the variable waits. It exists for cmd/plan's budget queries — the
// differential battery validates means, not tails.
func (m *Model) p99(p Prediction) float64 {
	variable := p.Phases[ptrace.PhaseQueue] + p.Phases[ptrace.PhaseTokenWait]
	deterministic := p.Phases[ptrace.PhasePipeline] + p.Phases[ptrace.PhaseEject] + float64(m.r)
	return deterministic + variable*math.Log(100)
}

// CapacityResult is the answer to a capacity query: the highest offered
// load whose predicted latency stays within budget.
type CapacityResult struct {
	// Rate is the per-core offered load answer.
	Rate float64
	// Utilization is Rate over the saturation estimate.
	Utilization float64
	// Prediction is the twin's evaluation at Rate.
	Prediction Prediction
	// BudgetBound reports that the budget binds (false: the budget is
	// loose and Rate is the divergence-capped envelope edge).
	BudgetBound bool
}

// CapacityFor inverts the twin by bisection: the largest rate whose
// predicted mean (or p99, with p99 set) latency is within budget. The
// search is capped at the validity envelope's edge — if the budget is
// still met there, the answer carries Diverged=true and callers (cmd/plan)
// should refine by simulation.
func (m *Model) CapacityFor(budget float64, p99 bool) CapacityResult {
	metric := func(p Prediction) float64 {
		if p99 {
			return p.P99
		}
		return p.Mean
	}
	hi := m.sat * 0.999
	if metric(m.Predict(0)) > budget {
		p := m.Predict(0)
		return CapacityResult{Rate: 0, Prediction: p, BudgetBound: true}
	}
	if metric(m.Predict(hi)) <= budget {
		p := m.Predict(hi)
		return CapacityResult{Rate: hi, Utilization: p.Utilization, Prediction: p, BudgetBound: false}
	}
	lo := 0.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if metric(m.Predict(mid)) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	p := m.Predict(lo)
	return CapacityResult{Rate: lo, Utilization: p.Utilization, Prediction: p, BudgetBound: true}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
