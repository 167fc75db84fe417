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

// ChaosBattery configures the fault-injection verification sweep: one
// shared uniform-random tape replayed through every (scheme, fault class,
// fault rate) triple with recovery enabled, asserting determinism under
// faults, packet conservation mid-flight and after drain, quiescence, and
// zero permanent loss wherever the scheme's protocol can recover. Cross
// legs cover the negative space: rate-zero inertness (the recovery
// machinery must not perturb fault-free digests), recovery-off stranding
// (data loss without timeouts must stall the drain, loudly), and
// fire-and-forget permanent loss (conservation must hold through the Lost
// term when recovery is impossible by design).
type ChaosBattery struct {
	// Schemes under test (default: all of them).
	Schemes []core.Scheme
	// Rates is the per-class fault-rate grid (default: 0.1%, 1%, 5%).
	Rates []float64
	// Classes under test (default: all four). A class is skipped for
	// schemes that lack the hardware it targets (pulse and data faults
	// need handshake retention to be recoverable).
	Classes []fault.Class
	// Burst is the fault burst length applied to every class (default 2,
	// so burst draining is exercised on every point).
	Burst int
	// Window is the per-run simulation window.
	Window sim.Window
	// Load is the offered uniform-random load, kept below saturation so a
	// finite drain is the fault-free expectation.
	Load float64
	// Seed drives the tape and the networks.
	Seed uint64
	// DrainLimit bounds the post-window drain; with recovery enabled every
	// in-grid point must reach quiescence inside it.
	DrainLimit int64
}

// QuickChaos is the CI-sized chaos battery.
func QuickChaos(seed uint64) ChaosBattery {
	return ChaosBattery{
		Schemes:    core.Schemes(),
		Rates:      []float64{0.001, 0.01, 0.05},
		Classes:    fault.Classes(),
		Burst:      2,
		Window:     sim.Window{Warmup: 300, Measure: 1000, Drain: 1000},
		Load:       0.02,
		Seed:       seed,
		DrainLimit: 60_000,
	}
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

// ChaosPoint is the verdict for one (scheme, class, rate) triple.
type ChaosPoint struct {
	Scheme core.Scheme
	Class  fault.Class
	Rate   float64

	Digest uint64
	// FaultsInjected is the number of faults that actually fired; the
	// point proves nothing if the schedule never struck.
	FaultsInjected     int64
	TimeoutRetransmits int64
	TokensRegenerated  int64

	// Deterministic: two replays produced identical core.Result structs.
	Deterministic bool
	// Drained: the post-window drain reached quiescence within the limit.
	Drained bool
	// Recovered: no permanent loss — every injected packet was delivered
	// or explicitly queue-rejected once the network went quiescent.
	Recovered bool
	// Conservation holds the auditor's verdict ("" = pass).
	Conservation string

	Detail string
}

// Pass reports whether every per-point check succeeded.
func (p ChaosPoint) Pass() bool {
	return p.Deterministic && p.Drained && p.Recovered && p.Conservation == ""
}

func (p ChaosPoint) failure() string { return p.Detail }

func (p ChaosPoint) id() (core.Scheme, string, uint64) {
	return p.Scheme, fmt.Sprintf("%s@%.3f", p.Class, p.Rate), p.Digest
}

func (p ChaosPoint) row() []any {
	return []any{p.Scheme.String(), p.Class.String(), p.Rate,
		fmt.Sprintf("%016x", p.Digest), p.FaultsInjected, p.TimeoutRetransmits, p.TokensRegenerated,
		mark(p.Deterministic), mark(p.Drained), mark(p.Recovered), mark(p.Conservation == "")}
}

var chaosLayout = layout{"chaos", "chaos battery (fault injection + recovery)", []string{
	"scheme", "class", "rate", "digest", "faults", "timeouts", "regens", "determ", "drained", "recovered", "conserve"}}

// chaosConfig builds the faulty network config for one point.
func (b ChaosBattery) chaosConfig(s core.Scheme, cl fault.Class, rate float64) core.Config {
	cfg := core.DefaultConfig(s)
	cfg.Seed = b.Seed
	cfg.Fault = fault.Config{
		Enabled: true,
		// Fire only after warmup: steady state degrades, startup doesn't.
		Warmup: b.Window.Warmup,
	}
	cfg.Fault = cfg.Fault.SetClass(cl, fault.ClassConfig{Rate: rate, Burst: b.Burst})
	cfg.Recovery.Enabled = true
	return cfg
}

// RunChaos executes the chaos battery.
func RunChaos(b ChaosBattery) (*Report[ChaosPoint], error) {
	if len(b.Schemes) == 0 {
		b.Schemes = core.Schemes()
	}
	if len(b.Rates) == 0 {
		b.Rates = QuickChaos(b.Seed).Rates
	}
	if len(b.Classes) == 0 {
		b.Classes = fault.Classes()
	}
	if b.Window.Total() == 0 {
		b.Window = QuickChaos(b.Seed).Window
	}
	if b.Load <= 0 {
		b.Load = QuickChaos(b.Seed).Load
	}
	if b.DrainLimit <= 0 {
		b.DrainLimit = QuickChaos(b.Seed).DrainLimit
	}

	cfg0 := core.DefaultConfig(b.Schemes[0])
	tape, err := traffic.RecordTape(traffic.UniformRandom{}, b.Load, cfg0.Nodes, cfg0.CoresPerNode,
		sim.DeriveSeed(b.Seed, 0xC4A05), b.Window.Warmup+b.Window.Measure)
	if err != nil {
		return nil, fmt.Errorf("check: recording chaos tape: %w", err)
	}

	type job struct {
		scheme core.Scheme
		class  fault.Class
		rate   float64
	}
	var jobs []job
	for _, s := range b.Schemes {
		for _, cl := range b.Classes {
			if !classApplies(s, cl) {
				continue
			}
			for _, rate := range b.Rates {
				jobs = append(jobs, job{s, cl, rate})
			}
		}
	}

	points, err := fanOut(jobs,
		func(j job) string { return fmt.Sprintf("chaos %s %s %.3f", j.scheme, j.class, j.rate) },
		func(j job) (ChaosPoint, error) { return b.verifyChaosPoint(j.scheme, j.class, j.rate, tape) })
	if err != nil {
		return nil, err
	}
	rep := &Report[ChaosPoint]{Points: points, layout: chaosLayout}

	// Rate-zero inertness: an enabled injector with all rates zero, plus
	// recovery armed, must reproduce the plain network's digest bit for
	// bit — the machinery may exist but must not perturb fault-free runs.
	for _, s := range b.Schemes {
		c := Check{Name: fmt.Sprintf("rate-0 inertness %s", s), Pass: true}
		plainCfg := core.DefaultConfig(s)
		plainCfg.Seed = b.Seed
		plain, err := runChaosTape(plainCfg, b.Window, tape, b.DrainLimit)
		if err != nil {
			return nil, err
		}
		armedCfg := plainCfg
		armedCfg.Fault = fault.Config{Enabled: true, Warmup: b.Window.Warmup}
		armedCfg.Recovery.Enabled = true
		armed, err := runChaosTape(armedCfg, b.Window, tape, b.DrainLimit)
		if err != nil {
			return nil, err
		}
		if plain.res.Digest != armed.res.Digest {
			c.Pass = false
			c.Detail = fmt.Sprintf("armed-but-silent digest %016x != plain digest %016x",
				armed.res.Digest, plain.res.Digest)
		}
		rep.Cross = append(rep.Cross, c)
	}

	// Recovery-off stranding: data faults with no timeouts must strand the
	// senders' retained copies — Drain must report the named error, and the
	// conservation identities must still hold over the wreckage.
	{
		c := Check{Name: "recovery-off data loss strands DHS", Pass: true}
		cfg := b.chaosConfig(core.DHS, fault.DataLoss, b.Rates[len(b.Rates)-1])
		cfg.Recovery.Enabled = false
		r, err := runChaosTape(cfg, b.Window, tape, b.DrainLimit)
		if err != nil {
			return nil, err
		}
		switch {
		case r.acct.FaultsInjected == 0:
			c.Pass = false
			c.Detail = "no faults fired; the leg proves nothing"
		case !errors.Is(r.drainErr, core.ErrDrainStalled):
			c.Pass = false
			c.Detail = fmt.Sprintf("expected ErrDrainStalled, got %v", r.drainErr)
		case r.auditErr != nil:
			c.Pass = false
			c.Detail = fmt.Sprintf("stranded network fails audit: %v", r.auditErr)
		}
		rep.Cross = append(rep.Cross, c)
	}

	// Fire-and-forget permanent loss: a scheme with no sender retention
	// cannot recover destroyed data; conservation must hold through the
	// Lost term and the drain must still reach quiescence (nothing is
	// owed for a packet nobody remembers).
	{
		c := Check{Name: "fire-and-forget data loss is permanent (DHS-cir)", Pass: true}
		cfg := b.chaosConfig(core.DHSCirculation, fault.DataLoss, b.Rates[len(b.Rates)-1])
		r, err := runChaosTape(cfg, b.Window, tape, b.DrainLimit)
		if err != nil {
			return nil, err
		}
		switch {
		case r.acct.FaultsInjected == 0:
			c.Pass = false
			c.Detail = "no faults fired; the leg proves nothing"
		case r.acct.Lost == 0:
			c.Pass = false
			c.Detail = "data faults fired but nothing was recorded lost"
		case r.drainErr != nil:
			c.Pass = false
			c.Detail = fmt.Sprintf("drain failed: %v", r.drainErr)
		case r.auditErr != nil:
			c.Pass = false
			c.Detail = fmt.Sprintf("audit failed: %v", r.auditErr)
		}
		rep.Cross = append(rep.Cross, c)
	}

	return rep, nil
}

// chaosRun bundles one tape replay's observables.
type chaosRun struct {
	res      core.Result
	acct     core.Accounting
	drainErr error
	auditErr error
}

// runChaosTape replays the tape, audits mid-flight, drains, audits again.
func runChaosTape(cfg core.Config, w sim.Window, tape *traffic.Tape, drainLimit int64) (chaosRun, error) {
	res, net, err := replay(cfg, w, tape)
	if err != nil {
		return chaosRun{}, err
	}
	r := chaosRun{res: res}
	r.acct, r.drainErr, r.auditErr = settle(net, drainLimit)
	return r, nil
}

// verifyChaosPoint runs one (scheme, class, rate) triple through the
// per-point checks.
func (b ChaosBattery) verifyChaosPoint(s core.Scheme, cl fault.Class, rate float64, tape *traffic.Tape) (ChaosPoint, error) {
	p := ChaosPoint{Scheme: s, Class: cl, Rate: rate}
	cfg := b.chaosConfig(s, cl, rate)

	r1, err := runChaosTape(cfg, b.Window, tape, b.DrainLimit)
	if err != nil {
		return p, err
	}
	r2, err := runChaosTape(cfg, b.Window, tape, b.DrainLimit)
	if err != nil {
		return p, err
	}
	p.Digest = r2.res.Digest
	p.FaultsInjected = r2.acct.FaultsInjected
	p.TimeoutRetransmits = r2.acct.TimeoutRetransmits
	p.TokensRegenerated = r2.acct.TokensRegenerated

	p.Deterministic = reflect.DeepEqual(r1.res, r2.res) && r1.acct.FaultsInjected == r2.acct.FaultsInjected
	if !p.Deterministic {
		p.Detail = fmt.Sprintf("repeat runs diverged: digest %016x vs %016x", r1.res.Digest, r2.res.Digest)
	}

	p.Drained = r2.drainErr == nil
	if !p.Drained && p.Detail == "" {
		p.Detail = fmt.Sprintf("drain: %v", r2.drainErr)
	}

	a := r2.acct
	p.Recovered = a.Lost == 0 && a.Delivered+a.QueueRejected == a.Injected
	if !p.Recovered && p.Detail == "" {
		p.Detail = fmt.Sprintf("permanent loss: injected %d, delivered %d, rejected %d, lost %d",
			a.Injected, a.Delivered, a.QueueRejected, a.Lost)
	}

	if r2.auditErr != nil {
		p.Conservation = r2.auditErr.Error()
		if p.Detail == "" {
			p.Detail = p.Conservation
		}
	}
	return p, nil
}
