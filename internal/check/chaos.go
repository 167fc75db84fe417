package check

import (
	"errors"
	"fmt"
	"reflect"

	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// chaosBattery is the fault-injection battery: one shared uniform-random
// tape, below saturation so a finite drain is the fault-free
// expectation, replayed through every (scheme, fault class, fault rate)
// with recovery enabled and a burst length of 2 (so burst draining is
// exercised on every point). It asserts determinism under faults, packet
// conservation mid-flight and after drain, quiescence, and zero
// permanent loss wherever the scheme's protocol can recover. Cross legs
// cover the negative space: rate-zero inertness (the recovery machinery
// must not perturb fault-free digests), recovery-off stranding (data
// loss without timeouts must stall the drain, loudly), and
// fire-and-forget permanent loss (conservation must hold through the
// Lost term when recovery is impossible by design). The full grid adds a
// 10% rate and measures four times as long.
var chaosBattery = &Battery{
	name: "chaos", title: "chaos battery (fault injection + recovery)",
	headers: []string{"scheme", "class", "rate", "digest", "faults", "timeouts", "regens", "determ", "drained", "recovered", "conserve"},
	salt:    0xC4A05,
	grid: func(quick bool) Grid {
		g := Grid{
			Drives:  []Drive{{Pattern: traffic.UniformRandom{}, Rate: 0.02}},
			Schemes: core.Schemes(), Classes: fault.Classes(), FaultRates: []float64{0.001, 0.01, 0.05},
			Window: sim.Window{Warmup: 300, Measure: 1000, Drain: 1000}, DrainLimit: 60_000,
		}
		if !quick {
			g.FaultRates = append(g.FaultRates, 0.10)
			g.Window.Measure *= 4
		}
		return g
	},
	check: verifyChaos,
	cross: chaosCross,
	row: func(p Result) []any {
		return append([]any{p.Scheme.String(), p.Class.String(), p.FaultRate, fmt.Sprintf("%016x", p.Digest),
			p.Acct.FaultsInjected, p.Acct.TimeoutRetransmits, p.Acct.TokensRegenerated}, p.marks()...)
	},
}

// classApplies reports whether a fault class belongs in scheme s's grid.
// Pulse faults need a handshake waveguide to strike; data faults are only
// recoverable when the sender retains its copy (fire-and-forget loss is
// covered by a dedicated cross leg instead, where Lost > 0 is the
// expectation rather than a failure).
func classApplies(s core.Scheme, cl fault.Class) bool {
	switch cl {
	case fault.PulseLoss, fault.DataLoss:
		return s.Handshake()
	default:
		return true
	}
}

// chaosRun bundles one settled tape replay's observables.
type chaosRun struct {
	res      core.Result
	acct     core.Accounting
	drainErr error
	auditErr error
}

// runChaosTape replays the tape, audits mid-flight, drains, audits again.
func runChaosTape(cfg core.Config, r *run) (chaosRun, error) {
	res, net, err := replay(cfg, r.Window, r.tapes[0])
	if err != nil {
		return chaosRun{}, err
	}
	c := chaosRun{res: res}
	c.acct, c.drainErr, c.auditErr = settle(net, r.DrainLimit)
	return c, nil
}

// verifyChaos runs one faulty point twice: both runs must agree on the
// Result and on the faults that fired through the drain, drain to
// quiescence, lose nothing permanently and conserve every packet.
func verifyChaos(r *run, j job) (Result, error) {
	cfg := j.config(r.seed, r.Window)
	r1, err := runChaosTape(cfg, r)
	if err != nil {
		return Result{}, err
	}
	r2, err := runChaosTape(cfg, r)
	if err != nil {
		return Result{}, err
	}
	a := r2.acct
	return Result{Point: j.Point, Digest: r2.res.Digest, Events: r2.res.DigestEvents, Acct: a, Checks: []Check{
		checked("determ", reflect.DeepEqual(r1.res, r2.res) && r1.acct.FaultsInjected == a.FaultsInjected, func() string {
			return fmt.Sprintf("repeat runs diverged: digest %016x vs %016x", r1.res.Digest, r2.res.Digest)
		}),
		checked("drained", r2.drainErr == nil, func() string { return fmt.Sprintf("drain: %v", r2.drainErr) }),
		checked("recovered", a.Lost == 0 && a.Delivered+a.QueueRejected == a.Injected, func() string {
			return fmt.Sprintf("permanent loss: injected %d, delivered %d, rejected %d, lost %d",
				a.Injected, a.Delivered, a.QueueRejected, a.Lost)
		}),
		checked("conserve", r2.auditErr == nil, func() string { return r2.auditErr.Error() }),
	}}, nil
}

// chaosCross runs the chaos battery's cross legs over its tape.
func chaosCross(r *run, _ []Result) ([]Check, error) {
	var cross []Check
	// Rate-zero inertness: an enabled injector with all rates zero, plus
	// recovery armed, must reproduce the plain network's digest bit for
	// bit — the machinery may exist but must not perturb fault-free runs.
	for _, s := range r.Schemes {
		plainCfg := Point{Scheme: s}.config(r.seed, r.Window)
		plain, err := runChaosTape(plainCfg, r)
		if err != nil {
			return nil, err
		}
		armedCfg := plainCfg
		arm(&armedCfg, r.Window)
		armed, err := runChaosTape(armedCfg, r)
		if err != nil {
			return nil, err
		}
		cross = append(cross, checked(fmt.Sprintf("rate-0 inertness %s", s), plain.res.Digest == armed.res.Digest, func() string {
			return fmt.Sprintf("armed-but-silent digest %016x != plain digest %016x", armed.res.Digest, plain.res.Digest)
		}))
	}

	// Recovery-off stranding: data faults with no timeouts must strand the
	// senders' retained copies — Drain must report the named error, and the
	// conservation identities must still hold over the wreckage.
	rate := r.FaultRates[len(r.FaultRates)-1]
	cfg := Point{Scheme: core.DHS, Class: fault.DataLoss, FaultRate: rate}.config(r.seed, r.Window)
	cfg.Recovery.Enabled = false
	stranded, err := runChaosTape(cfg, r)
	if err != nil {
		return nil, err
	}
	c := Check{Name: "recovery-off data loss strands DHS"}
	switch {
	case stranded.acct.FaultsInjected == 0:
		c.Detail = "no faults fired; the leg proves nothing"
	case !errors.Is(stranded.drainErr, core.ErrDrainStalled):
		c.Detail = fmt.Sprintf("expected ErrDrainStalled, got %v", stranded.drainErr)
	case stranded.auditErr != nil:
		c.Detail = fmt.Sprintf("stranded network fails audit: %v", stranded.auditErr)
	default:
		c.Pass = true
	}
	cross = append(cross, c)

	// Fire-and-forget permanent loss: a scheme with no sender retention
	// cannot recover destroyed data; conservation must hold through the
	// Lost term and the drain must still reach quiescence (nothing is
	// owed for a packet nobody remembers).
	lost, err := runChaosTape(Point{Scheme: core.DHSCirculation, Class: fault.DataLoss, FaultRate: rate}.config(r.seed, r.Window), r)
	if err != nil {
		return nil, err
	}
	c = Check{Name: "fire-and-forget data loss is permanent (DHS-cir)"}
	switch {
	case lost.acct.FaultsInjected == 0:
		c.Detail = "no faults fired; the leg proves nothing"
	case lost.acct.Lost == 0:
		c.Detail = "data faults fired but nothing was recorded lost"
	case lost.drainErr != nil:
		c.Detail = fmt.Sprintf("drain failed: %v", lost.drainErr)
	case lost.auditErr != nil:
		c.Detail = fmt.Sprintf("audit failed: %v", lost.auditErr)
	default:
		c.Pass = true
	}
	return append(cross, c), nil
}
