package check

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// WorkloadBattery configures the workload differential battery: every
// preset workload is recorded once as a tape and verified under every
// scheme — determinism across replays, tape faithfulness against the
// live injector, and packet conservation audited at every schedule phase
// boundary, not just at the end of the run. It is the Workload-layer
// analogue of Battery, which owns the fixed-rate Bernoulli grids.
type WorkloadBattery struct {
	// Schemes under test (default: all of them).
	Schemes []core.Scheme
	// Workloads under test (default: traffic.PresetWorkloads).
	Workloads []traffic.WorkloadPreset
	// Pattern draws destinations (default: uniform random).
	Pattern traffic.Pattern
	// Window is the per-run simulation window.
	Window sim.Window
	// Seed drives tape generation and network stochastics.
	Seed uint64
	// DrainLimit bounds the extra post-window drain before the final
	// audit.
	DrainLimit int64
}

// QuickWorkloadBattery is the CI-sized workload battery: all schemes over
// every preset workload on a short window. A few seconds end to end.
func QuickWorkloadBattery(seed uint64) WorkloadBattery {
	return WorkloadBattery{
		Schemes:    core.Schemes(),
		Workloads:  traffic.PresetWorkloads(),
		Pattern:    traffic.UniformRandom{},
		Window:     sim.Window{Warmup: 300, Measure: 1200, Drain: 1000},
		Seed:       seed,
		DrainLimit: 20_000,
	}
}

// WorkloadPointReport is the verdict for one (scheme, workload) pair.
// TapeFaithful is judged against a live workload injector, and
// Conservation also covers the mid-run phase-boundary audits.
type WorkloadPointReport struct {
	TapeVerdict
	Workload string // preset name
	Spec     string // canonical workload spec
	// Boundaries counts the schedule phase boundaries the conservation
	// auditor checked mid-run (the final post-drain audit is extra).
	Boundaries int
}

func (p WorkloadPointReport) id() (core.Scheme, string, uint64) {
	return p.Scheme, p.Workload, p.Digest
}

func (p WorkloadPointReport) row() []any {
	return []any{p.Scheme.String(), p.Workload,
		fmt.Sprintf("%016x", p.Digest), p.Events, p.Injected, p.Delivered, p.Backlog, p.Boundaries,
		mark(p.Deterministic), mark(p.TapeFaithful), mark(p.Conservation == "")}
}

var workloadLayout = layout{"workloads", "workload differential battery", []string{
	"scheme", "workload", "digest", "events", "injected", "delivered", "backlog", "phases", "determ", "tape", "conserve"}}

// RunWorkloads executes the workload battery: per-point determinism,
// tape faithfulness and phase-boundary conservation, then the
// cross-scheme differential comparison over each shared tape.
func RunWorkloads(b WorkloadBattery) (*Report[WorkloadPointReport], error) {
	if len(b.Schemes) == 0 {
		b.Schemes = core.Schemes()
	}
	if len(b.Workloads) == 0 {
		b.Workloads = traffic.PresetWorkloads()
	}
	if b.Pattern == nil {
		b.Pattern = traffic.UniformRandom{}
	}
	if b.Window.Total() == 0 {
		b.Window = QuickWorkloadBattery(b.Seed).Window
	}

	// One tape per workload; every scheme replays the same tape, so the
	// cross-scheme comparison is over byte-identical offered traffic and
	// each tape's jobs are contiguous in scheme order.
	type job struct {
		scheme   core.Scheme
		preset   traffic.WorkloadPreset
		workload *traffic.Workload
		tape     *traffic.Tape
	}
	cfg0 := core.DefaultConfig(b.Schemes[0])
	var jobs []job
	for i, p := range b.Workloads {
		w, err := traffic.ParseWorkload(p.Spec)
		if err != nil {
			return nil, fmt.Errorf("check: workload %s: %w", p.Name, err)
		}
		tape, err := traffic.RecordWorkloadTape(w, b.Pattern, cfg0.Nodes, cfg0.CoresPerNode,
			sim.DeriveSeed(b.Seed, uint64(i)), b.Window.Warmup+b.Window.Measure)
		if err != nil {
			return nil, fmt.Errorf("check: recording %s tape: %w", p.Name, err)
		}
		for _, s := range b.Schemes {
			jobs = append(jobs, job{scheme: s, preset: p, workload: w, tape: tape})
		}
	}

	reports, err := fanOut(jobs,
		func(j job) string { return fmt.Sprintf("%s %s", j.scheme, j.preset.Name) },
		func(j job) (WorkloadPointReport, error) {
			return verifyWorkloadPoint(b, j.scheme, j.preset, j.workload, j.tape)
		})
	if err != nil {
		return nil, err
	}
	rep := &Report[WorkloadPointReport]{Points: reports, layout: workloadLayout}
	for k := 0; k < len(jobs); k += len(b.Schemes) {
		name := fmt.Sprintf("workload differential %s", jobs[k].preset.Name)
		rep.Cross = append(rep.Cross, differential(name, jobs[k].tape, reports[k:k+len(b.Schemes)]))
	}
	return rep, nil
}

// verifyWorkloadPoint runs one (scheme, workload) pair through the
// per-point checks.
func verifyWorkloadPoint(b WorkloadBattery, s core.Scheme, preset traffic.WorkloadPreset, w *traffic.Workload, tape *traffic.Tape) (WorkloadPointReport, error) {
	p := WorkloadPointReport{TapeVerdict: TapeVerdict{Scheme: s}, Workload: preset.Name, Spec: w.String()}
	cfg := core.DefaultConfig(s)
	cfg.Seed = b.Seed
	if _, err := p.replayTwice(cfg, b.Window, tape); err != nil {
		return p, err
	}

	// Live-injector equivalence and phase-boundary conservation in one
	// run: drive the network cycle by cycle with a live workload injector
	// and audit the packet-conservation identities at every resolved
	// schedule boundary — the audits are read-only, so the run's digest
	// must still match the tape replay's.
	net, err := core.NewNetwork(cfg, b.Window)
	if err != nil {
		return p, err
	}
	inj, err := traffic.NewWorkloadInjector(w, b.Pattern, cfg.Nodes, cfg.CoresPerNode, tape.Seed)
	if err != nil {
		return p, err
	}
	span := b.Window.Warmup + b.Window.Measure
	inj.Prepare(span)
	bounds := inj.Boundaries()
	next := 0
	for cyc := int64(0); cyc < span; cyc++ {
		inj.Tick(net)
		net.Step()
		// <= rather than ==: a schedule may resolve degenerate segments to
		// zero cycles, stacking several boundaries on one cycle.
		for next < len(bounds) && bounds[next] <= cyc+1 {
			if err := AuditNetwork(net); err != nil && p.Conservation == "" {
				p.Conservation = fmt.Sprintf("phase boundary %d (cycle %d): %v", next+1, cyc+1, err)
			}
			p.Boundaries++
			next++
		}
	}
	net.RunCycles(b.Window.Drain)
	p.live(net.Result().Digest)

	p.settle(net, b.DrainLimit)
	return p, nil
}
