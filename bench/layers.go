package main

import (
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"time"

	"photon/internal/check"
	"photon/internal/core"
	"photon/internal/cpu"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/ptrace"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/traffic"
	"photon/internal/twin"
)

// This file is the traced pass: it re-runs one seed of a workload through
// the benchmark's own drive loop, timing each call into a layer from
// outside, and runs the layer micro-measurements no workload isolates.
// Every traced op is driven five ways — through the public entry, through
// the drive loop live, and through the drive loop from a tape with a
// counting tracer, with a recording tap, and with invariants off — and
// all five must produce the same digest, so the per-layer split is of the
// same simulation the end-to-end numbers time.

// layerDef names one per-layer metric. A layer that is not on a
// workload's path reports 0 there.
type layerDef struct{ name, unit, better string }

// blockCycles is the span granularity of the drive loop.
const blockCycles = 500

// layers is every per-layer metric, in print order.
var layers = layerDefs()

func layerDefs() []layerDef {
	defs := []layerDef{
		{"traffic.gen_ns_per_cycle", "ns", "lower"},
		{"traffic.gen_ns_per_arrival", "ns", "lower"},
		{"traffic.tick_ns_per_cycle", "ns", "lower"},
		{"traffic.arrivals_per_cycle", "count", "higher"},
		{"traffic.new_injector_us", "us", "lower"},
		{"traffic.parse_workload_us", "us", "lower"},
		{"traffic.tape_replay_ns_per_cycle", "ns", "lower"},
		{"core.step_ns_per_cycle", "ns", "lower"},
	}
	for _, s := range core.Schemes() {
		defs = append(defs, layerDef{"core.step_ns_per_cycle." + s.String(), "ns", "lower"})
	}
	defs = append(defs,
		layerDef{"core.inject_ns_per_packet", "ns", "lower"},
		layerDef{"core.new_network_us.n64", "us", "lower"},
		layerDef{"core.new_network_us.n256", "us", "lower"},
		layerDef{"core.result_us", "us", "lower"},
		layerDef{"core.idle_ns_per_cycle", "ns", "lower"},
		layerDef{"core.drain_ns_per_cycle", "ns", "lower"},
		layerDef{"core.tap_ns_per_event", "ns", "lower"},
		layerDef{"core.invariants_ns_per_cycle", "ns", "lower"},
		layerDef{"core.sim.launches", "count", "lower"},
		layerDef{"core.sim.drops", "count", "lower"},
		layerDef{"core.sim.retransmits", "count", "lower"},
		layerDef{"core.sim.circulations", "count", "lower"},
		layerDef{"core.sim.nacks", "count", "lower"},
		layerDef{"core.sim.arb_wait_cycles", "cycles", "lower"},
		layerDef{"core.sim.queue_wait_cycles", "cycles", "lower"},
		layerDef{"core.sim.useful_launch_ratio", "ratio", "higher"},
		layerDef{"core.digest_drift", "count", "lower"},
		layerDef{"core.audit_failures", "count", "lower"},
		layerDef{"ptrace.push_ns_per_record", "ns", "lower"},
		layerDef{"ptrace.assemble_ns_per_record", "ns", "lower"},
		layerDef{"ptrace.records_per_packet", "count", "lower"},
		layerDef{"ptrace.online_overhead_ns_per_packet", "ns", "lower"},
		layerDef{"ptrace.max_live", "count", "lower"},
		layerDef{"ptrace.flushed", "count", "higher"},
	)
	for k := 0; k < ptrace.NumPhases; k++ {
		defs = append(defs, layerDef{"ptrace.sim.phase_cycles." + ptrace.PhaseKind(k).String(), "cycles", "lower"})
	}
	return append(defs,
		layerDef{"exp.run_point_overhead_us", "us", "lower"},
		layerDef{"exp.run_points_us_per_point_null", "us", "lower"},
		layerDef{"farm.supervise_us_per_point", "us", "lower"},
		layerDef{"farm.manifest_us_per_point", "us", "lower"},
		layerDef{"farm.fsync_us_per_point", "us", "lower"},
		layerDef{"farm.resume_us_per_point", "us", "lower"},
		layerDef{"farm.cpu_utilisation", "ratio", "higher"},
		layerDef{"farm.retries", "count", "lower"},
		layerDef{"farm.quarantined", "count", "lower"},
		layerDef{"cpu.step_ns_per_cycle", "ns", "lower"},
		layerDef{"cpu.sim.ipc", "1/cycle", "higher"},
		layerDef{"cpu.sim.mshr_stall_frac", "ratio", "lower"},
		layerDef{"cpu.sim.mem_latency_cycles", "cycles", "lower"},
		layerDef{"twin.new_us", "us", "lower"},
		layerDef{"twin.predict_ns", "ns", "lower"},
		layerDef{"twin.capacity_us", "us", "lower"},
		layerDef{"twin.latency_err_pct", "%", "lower"},
		layerDef{"bench.trace_overhead_frac", "ratio", "lower"},
	)
}

// ledger is the per-layer result of one workload's traced pass.
type ledger map[string]float64

// ratio is a/b, or 0 when the layer did no such work on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics lists the ledger in print order, with 0 for what it does not
// hold. An entry that is not a declared metric is a bug in this file.
func (l ledger) metrics() ([]metric, error) {
	out := make([]metric, 0, len(layers))
	held := 0
	for _, d := range layers {
		v, ok := l[d.name]
		if ok {
			held++
		}
		out = append(out, metric{Name: d.name, Value: v, Unit: d.unit})
	}
	if held != len(l) {
		return nil, fmt.Errorf("bench: the ledger holds %d entries that are not declared per-layer metrics", len(l)-held)
	}
	return out, nil
}

// countTap is the cheapest possible core.Tracer, so that the step-time
// difference it causes is the engine's cost of emitting events, not a
// sink's cost of storing them.
type countTap struct{ events int64 }

func (c *countTap) Observe(core.Event) { c.events++ }

// recordTap captures, within a bounded memory, what the span assemblers
// are measured on. dense is every event up to the limit: the stream as
// the assemblers meet it, which is what their per-record time depends on.
// sparse is the whole chain of every k-th packet (and every k-th
// packet-less event) across the run: a dense prefix is all warm-up, so
// the latency attribution of measured packets has to come from a sample.
type recordTap struct {
	dense, sparse ptrace.Tap
	limit         int
	every, meta   uint64
}

func (r *recordTap) Observe(e core.Event) {
	if len(r.dense.Records) < r.limit {
		r.dense.Observe(e)
	}
	if e.Packet != nil {
		if e.Packet.ID%r.every != 0 {
			return
		}
	} else if r.meta++; r.meta%r.every != 0 {
		return
	}
	r.sparse.Observe(e)
}

// driveSpec says how the drive loop runs one op.
type driveSpec struct {
	o op
	// tape, when set, replaces the live injector: entries are handed to
	// Network.Inject at their recorded cycles.
	tape         *traffic.Tape
	tracer       core.Tracer
	noInvariants bool
	// untimed skips the per-cycle timers (the recording-tap run, whose
	// time nobody reads).
	untimed bool
}

type driveOut struct {
	cfg     core.Config // the configuration the network ran with
	res     core.Result
	outcome cpu.Outcome
	acct    core.Accounting
	audit   error
	wall    time.Duration // construction to result
	pre     time.Duration // Tick, Inject or CMP.Step, summed
	step    time.Duration
	drain   time.Duration
	result  time.Duration
	cycles  int64 // cycles the per-cycle loop ran
}

// traced holds one workload's traced pass.
type traced struct {
	p   *prepared
	rec *recorder
}

// drive is the benchmark's own loop over one op: NewNetwork, NewInjector
// (or cpu.New), per-cycle pre-step call and Step in 500-cycle blocks,
// RunCycles(Drain), Result.
func (t *traced) drive(parent int, d driveSpec) (out driveOut, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()
	o, rec := d.o, t.rec
	start := time.Now()
	cfg := baseConfig(o)
	if o.kind != kindCMP && o.point.Mod != nil {
		o.point.Mod(&cfg)
	}
	if d.noInvariants {
		cfg.CheckInvariants = false
	}
	out.cfg = cfg
	win := o.opts.Window
	var net *core.Network
	rec.time(parent, "core.NewNetwork", func() { net, err = core.NewNetwork(cfg, win) })
	if err != nil {
		return out, err
	}
	if d.tracer != nil {
		net.SetTracer(d.tracer)
	}

	var pre func(cyc int64)
	preName := "traffic.Injector.Tick"
	var model *cpu.CMP
	switch {
	case o.kind == kindCMP:
		preName = "cpu.CMP.Step"
		rec.time(parent, "cpu.New", func() { model, err = cpu.New(cmpParams(o), net) })
		if err != nil {
			return out, err
		}
		pre = func(int64) { model.Step() }
	case d.tape != nil:
		preName = "core.Network.Inject"
		next := 0
		pre = func(cyc int64) {
			for next < len(d.tape.Entries) && d.tape.Entries[next].Cycle == cyc {
				e := d.tape.Entries[next]
				net.Inject(e.Core, e.Dst, router.ClassData, 0)
				next++
			}
		}
	default:
		var inj *traffic.Injector
		rec.time(parent, "traffic.NewInjector", func() { inj, err = newInjector(o, cfg) })
		if err != nil {
			return out, err
		}
		pre = func(int64) { inj.Tick(net) }
	}

	span := win.Warmup + win.Measure
	out.cycles = span
	for base := int64(0); base < span; base += blockCycles {
		n := span - base
		if n > blockCycles {
			n = blockCycles
		}
		if d.untimed {
			for i := int64(0); i < n; i++ {
				pre(base + i)
				net.Step()
			}
			continue
		}
		id := rec.begin(parent, "drive.block", t.p.w.name, o.key)
		var preNs, stepNs time.Duration
		for i := int64(0); i < n; i++ {
			t0 := time.Now()
			pre(base + i)
			t1 := time.Now()
			net.Step()
			preNs += t1.Sub(t0)
			stepNs += time.Since(t1)
		}
		rec.end(id, n)
		at := rec.spans[id-1].StartNs
		rec.child(id, preName, at, int64(preNs), n)
		rec.child(id, "core.Network.Step", at+int64(preNs), int64(stepNs), n)
		out.pre += preNs
		out.step += stepNs
	}
	if win.Drain > 0 {
		out.drain = rec.time(parent, "core.Network.RunCycles.drain", func() { net.RunCycles(win.Drain) })
	}
	if model != nil {
		out.result = rec.time(parent, "cpu.CMP.Outcome", func() { out.outcome = model.Outcome(span) })
		out.res = out.outcome.NetResult
	} else {
		out.result = rec.time(parent, "core.Network.Result", func() { out.res = net.Result() })
	}
	out.wall = time.Since(start)
	rec.time(parent, "check.AuditNetwork", func() { out.audit = check.AuditNetwork(net) })
	out.acct = net.Accounting()
	return out, nil
}

// newInjector builds the injector exp.RunPoint would build for the op.
func newInjector(o op, cfg core.Config) (*traffic.Injector, error) {
	w, err := opWorkload(o)
	if err != nil {
		return nil, err
	}
	return traffic.NewWorkloadInjector(w, o.point.Pattern, cfg.Nodes, cfg.CoresPerNode, injectorSeed(o))
}

// injectorSeed is the seed exp derives for a point's traffic.
func injectorSeed(o op) uint64 { return o.opts.Seed + 0x9E37 }

func opWorkload(o op) (*traffic.Workload, error) {
	if o.point.Workload == "" {
		return traffic.Bernoulli(o.point.Rate), nil
	}
	return traffic.ParseWorkload(o.point.Workload)
}

// sums accumulates the traced ops of one workload.
type sums struct {
	genNs, genCycles, genArrivals      float64
	tickNs, tickCycles, arrivals       float64
	stepNs, stepCycles                 float64
	schemeStepNs, schemeStepCycles     map[core.Scheme]float64
	injectNs, injectPackets            float64
	drainNs, drainCycles               float64
	resultNs, results                  float64
	tapStepNs, tapEvents, bareStepNs   float64
	launches, drops, retx, circ, nacks float64
	ringDelivered                      float64
	arbWait, queueWait, ops            float64
	pushNs, asmNs, denseRecords        float64
	records, packets                   float64
	onlineNs, onlinePackets            float64
	maxLive, flushed                   float64
	phases                             [ptrace.NumPhases]float64
	phaseSpans                         float64
	cmpStepNs, cmpCycles               float64
	ipc, stall, memLat, cmpOps         float64
	untracedNs, tracedNs               float64
	twinErr, twinOps                   float64
	auditFailures                      float64
}

// tracedOutcome is what the traced pass reports besides the ledger.
type tracedOutcome struct {
	attempted, failed int
	failures          []string
	results           []opResult
	ok                []bool
}

// tracedOps is row 0 of the workload; grid-quick's row is a whole grid,
// so it is sampled at a stride instead.
func (p *prepared) tracedOps() ([]op, error) {
	ops, err := p.ops(0)
	if err != nil || !p.w.grid {
		return ops, err
	}
	want := 3 * p.sz.microReps
	stride := (len(ops) + want - 1) / want
	var sample []op
	for i := 0; i < len(ops); i += stride {
		sample = append(sample, ops[i])
	}
	return sample, nil
}

// run executes the traced pass and returns the per-layer ledger.
func (t *traced) run(scratch *scratchDir) (ledger, tracedOutcome, error) {
	p := t.p
	ops, err := p.tracedOps()
	if err != nil {
		return nil, tracedOutcome{}, err
	}
	s := sums{schemeStepNs: map[core.Scheme]float64{}, schemeStepCycles: map[core.Scheme]float64{}}
	out := tracedOutcome{results: make([]opResult, len(ops)), ok: make([]bool, len(ops))}
	root := t.rec.begin(0, "traced-pass", p.w.name, "")
	for i, o := range ops {
		out.attempted++
		r, err := t.op(root, i, o, &s)
		if err != nil {
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", o.key, err))
			continue
		}
		out.results[i], out.ok[i] = r, true
	}

	l := ledger{}
	l["traffic.gen_ns_per_cycle"] = ratio(s.genNs, s.genCycles)
	l["traffic.gen_ns_per_arrival"] = ratio(s.genNs, s.genArrivals)
	l["traffic.tick_ns_per_cycle"] = ratio(s.tickNs, s.tickCycles)
	l["traffic.arrivals_per_cycle"] = ratio(s.arrivals, s.tickCycles)
	l["core.step_ns_per_cycle"] = ratio(s.stepNs, s.stepCycles)
	for sch, ns := range s.schemeStepNs {
		l["core.step_ns_per_cycle."+sch.String()] = ratio(ns, s.schemeStepCycles[sch])
	}
	l["core.inject_ns_per_packet"] = ratio(s.injectNs, s.injectPackets)
	l["core.result_us"] = ratio(s.resultNs, s.results) / 1e3
	l["core.drain_ns_per_cycle"] = ratio(s.drainNs, s.drainCycles)
	// Both differences are between two whole runs of the same ops, so
	// they carry the noise of both; small negative values mean "below
	// what this box can resolve".
	l["core.tap_ns_per_event"] = ratio(s.tapStepNs-s.stepNs, s.tapEvents)
	l["core.invariants_ns_per_cycle"] = ratio(s.stepNs-s.bareStepNs, s.stepCycles)
	l["core.sim.launches"] = s.launches
	l["core.sim.drops"] = s.drops
	l["core.sim.retransmits"] = s.retx
	l["core.sim.circulations"] = s.circ
	l["core.sim.nacks"] = s.nacks
	l["core.sim.arb_wait_cycles"] = ratio(s.arbWait, s.ops)
	l["core.sim.queue_wait_cycles"] = ratio(s.queueWait, s.ops)
	l["core.sim.useful_launch_ratio"] = ratio(s.ringDelivered, s.launches)
	l["core.digest_drift"] = float64(p.drift(ops, out.results, out.ok))
	l["core.audit_failures"] = s.auditFailures
	l["ptrace.push_ns_per_record"] = ratio(s.pushNs, s.denseRecords)
	l["ptrace.assemble_ns_per_record"] = ratio(s.asmNs, s.denseRecords)
	l["ptrace.records_per_packet"] = ratio(s.records, s.packets)
	l["ptrace.online_overhead_ns_per_packet"] = ratio(s.onlineNs, s.onlinePackets)
	l["ptrace.max_live"] = s.maxLive
	l["ptrace.flushed"] = s.flushed
	for k := 0; k < ptrace.NumPhases; k++ {
		l["ptrace.sim.phase_cycles."+ptrace.PhaseKind(k).String()] = ratio(s.phases[k], s.phaseSpans)
	}
	l["cpu.step_ns_per_cycle"] = ratio(s.cmpStepNs, s.cmpCycles)
	l["cpu.sim.ipc"] = ratio(s.ipc, s.cmpOps)
	l["cpu.sim.mshr_stall_frac"] = ratio(s.stall, s.cmpOps)
	l["cpu.sim.mem_latency_cycles"] = ratio(s.memLat, s.cmpOps)
	l["twin.latency_err_pct"] = ratio(s.twinErr, s.twinOps)
	l["bench.trace_overhead_frac"] = ratio(s.tracedNs-s.untracedNs, s.untracedNs)

	if p.w.grid {
		// The farm's own counters come from one real run of the grid.
		var rr rowResult
		t.rec.time(root, "farm.Run", func() { rr, err = p.runRow(0, 0, scratch) })
		if err != nil {
			return nil, out, err
		}
		l["farm.cpu_utilisation"] = rr.cpu.Seconds() / (rr.wall.Seconds() * farmWorkers)
		l["farm.retries"] = float64(rr.retries)
		for i := range rr.ok {
			if !rr.ok[i] {
				l["farm.quarantined"]++
			}
		}
	}
	t.rec.end(root, int64(len(ops)))
	return l, out, nil
}

// sloStream arms a streaming assembler exactly as exp.RunWorkloadSLO does:
// every span validated, attributed and binned into a latency histogram.
func sloStream() *ptrace.Stream {
	var attr ptrace.Attribution
	hist := stats.NewHistogram(0)
	return ptrace.NewStream(ptrace.StreamConfig{OnSpan: func(sp *ptrace.PacketSpan) error {
		if err := sp.Validate(); err != nil {
			return err
		}
		if attr.AddSpan(sp, true) {
			hist.Add(sp.Latency())
		}
		return nil
	}})
}

// op drives one traced op the five ways and folds its timings into s.
func (t *traced) op(root, index int, o op, s *sums) (opResult, error) {
	rec := t.rec
	id := rec.begin(root, "op", t.p.w.name, o.key)
	defer func() { rec.end(id, 1) }()

	// 1. The public entry, untraced: the reference digest, and the time
	// the drive loop's overhead is measured against.
	entry := map[opKind]string{kindPoint: "exp.RunPoint", kindSLO: "exp.RunWorkloadSLO", kindCMP: "cpu.CMP.Run"}[o.kind]
	var want opResult
	var untraced time.Duration
	public := func() (err error) {
		untraced = rec.time(id, entry, func() { want, err = runOp(o) })
		return err
	}
	// 2. The drive loop with the live injector (or the CMP model), and for
	// an SLO op the streaming assembler the public entry arms.
	var d driveOut
	var stream *ptrace.Stream
	live := func() (err error) {
		spec := driveSpec{o: o}
		if o.kind == kindSLO {
			stream = sloStream()
			spec.tracer = stream
		}
		if d, err = t.drive(id, spec); err != nil {
			return err
		}
		if stream != nil {
			rec.time(id, "ptrace.Stream.Close", func() { err = stream.Close() })
		}
		return err
	}
	// Whichever of the two runs first pays for a cold heap, so the order
	// alternates and the bias cancels over the ops of a pass.
	runs := []func() error{public, live}
	if index%2 == 1 {
		runs[0], runs[1] = live, public
	}
	for _, f := range runs {
		if err := f(); err != nil {
			return want, err
		}
	}
	if why := o.verdict(want); why != "" {
		return want, fmt.Errorf("%s", why)
	}
	same := func(what string, r core.Result) error {
		if r.Digest != want.Digest {
			return fmt.Errorf("%s digest %016x differs from the public entry's %016x", what, r.Digest, want.Digest)
		}
		return nil
	}
	if err := same("drive loop", d.res); err != nil {
		return want, err
	}
	if d.audit != nil {
		s.auditFailures++
		return want, d.audit
	}
	s.untracedNs += float64(untraced)
	s.tracedNs += float64(d.wall)
	s.launches += float64(d.acct.Launches)
	s.drops += float64(d.acct.Drops)
	s.retx += float64(d.acct.Retransmits)
	s.circ += float64(d.acct.Circulations)
	for _, c := range d.acct.Channels {
		s.nacks += float64(c.NacksSent)
	}
	s.ringDelivered += float64(d.acct.Delivered - d.acct.LocalDelivered)
	s.arbWait += d.res.AvgArbWait
	s.queueWait += d.res.AvgQueueWait
	s.ops++

	var tape *traffic.Tape
	if o.kind == kindCMP {
		s.cmpStepNs += float64(d.pre)
		s.cmpCycles += float64(d.cycles)
		s.ipc += d.outcome.IPC
		s.stall += d.outcome.StallFraction
		s.memLat += d.outcome.AvgMemLatency
		s.cmpOps++
	} else {
		s.arrivals += float64(d.acct.Injected)
		// The op's traffic as a tape: generation on its own, and the input
		// of the tape-driven runs below.
		w, err := opWorkload(o)
		if err != nil {
			return want, err
		}
		gen := rec.time(id, "traffic.RecordWorkloadTape", func() {
			tape, err = traffic.RecordWorkloadTape(w, o.point.Pattern, d.cfg.Nodes, d.cfg.CoresPerNode, injectorSeed(o), d.cycles)
		})
		if err != nil {
			return want, err
		}
		s.genNs += float64(gen)
		s.genCycles += float64(d.cycles)
		s.genArrivals += float64(len(tape.Entries))
	}
	if o.point.Mod == nil && o.kind == kindPoint && o.subSat {
		m, err := twin.NewDefault(o.scheme)
		if err != nil {
			return want, err
		}
		s.twinErr += 100 * math.Abs(m.Predict(o.point.Rate).Mean-want.AvgLatency) / want.AvgLatency
		s.twinOps++
	}

	// The layers' own Tick and Step times are run 2's — except for an SLO
	// op, whose run 2 has the stream's work inside every Inject and Step.
	// There the stream is costed by the ptrace metrics, and the layers by
	// one more live run without it.
	plain := d
	if stream != nil {
		s.maxLive = math.Max(s.maxLive, float64(stream.MaxLive()))
		s.flushed += float64(stream.Flushed())
		point := o
		point.kind = kindPoint
		var pr opResult
		var err error
		bare := rec.time(id, "exp.RunPoint", func() { pr, err = runOp(point) })
		if err != nil {
			return want, err
		}
		if pr.Digest != want.Digest {
			return want, fmt.Errorf("exp.RunPoint digest %016x differs from exp.RunWorkloadSLO's %016x", pr.Digest, want.Digest)
		}
		// What arming the stream costs a user, per delivered packet.
		s.onlineNs += float64(untraced - bare)
		s.onlinePackets += float64(want.Delivered)
		if plain, err = t.drive(id, driveSpec{o: o}); err != nil {
			return want, err
		}
		if err := same("stream-less run", plain.res); err != nil {
			return want, err
		}
	}
	if o.kind != kindCMP {
		s.tickNs += float64(plain.pre)
		s.tickCycles += float64(plain.cycles)
	}
	s.stepNs += float64(plain.step)
	s.stepCycles += float64(plain.cycles)
	s.schemeStepNs[o.scheme] += float64(plain.step)
	s.schemeStepCycles[o.scheme] += float64(plain.cycles)
	s.drainNs += float64(plain.drain)
	s.drainCycles += float64(o.opts.Window.Drain)
	s.resultNs += float64(plain.result)
	s.results++

	// 3. Counting tracer armed: Inject under tape drive, and the step
	// time against the plain run is the engine's cost of emitting events.
	tap := &countTap{}
	c, err := t.drive(id, driveSpec{o: o, tape: tape, tracer: tap})
	if err != nil {
		return want, err
	}
	if err := same("counting-tracer run", c.res); err != nil {
		return want, err
	}
	s.tapStepNs += float64(c.step)
	s.tapEvents += float64(tap.events)
	if tape != nil {
		s.injectNs += float64(c.pre)
		s.injectPackets += float64(len(tape.Entries))
	}

	// 4. Recording tap: the records the span assemblers are measured on.
	limit := 40_000 * t.p.sz.microReps
	rtap := &recordTap{limit: limit, every: uint64(tap.events)/uint64(limit) + 1}
	r, err := t.drive(id, driveSpec{o: o, tape: tape, tracer: rtap, untimed: true})
	if err != nil {
		return want, err
	}
	if err := same("recording-tap run", r.res); err != nil {
		return want, err
	}
	if err := t.assemble(id, rtap, s); err != nil {
		return want, err
	}

	// 5. Invariants off: the step time against the plain run is what the
	// per-cycle conservation checks cost.
	b, err := t.drive(id, driveSpec{o: o, tape: tape, noInvariants: true})
	if err != nil {
		return want, err
	}
	if err := same("invariants-off run", b.res); err != nil {
		return want, err
	}
	s.bareStepNs += float64(b.step)
	return want, nil
}

// assemble times both span assemblers over the dense records and takes
// the latency attribution from the sparse ones.
func (t *traced) assemble(parent int, tap *recordTap, s *sums) error {
	dense := tap.dense.Records
	st := ptrace.NewStream(ptrace.StreamConfig{})
	var err error
	push := t.rec.time(parent, "ptrace.Stream.Push", func() {
		for i := range dense {
			if err = st.Push(dense[i]); err != nil {
				return
			}
		}
		err = st.Close()
	})
	if err != nil {
		return fmt.Errorf("stream replay: %w", err)
	}
	asm := t.rec.time(parent, "ptrace.Assemble", func() { _, err = ptrace.Assemble(dense) })
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	s.pushNs += float64(push)
	s.asmNs += float64(asm)
	s.denseRecords += float64(len(dense))

	tr, err := ptrace.Assemble(tap.sparse.Records)
	if err != nil {
		return fmt.Errorf("assemble sampled records: %w", err)
	}
	attr := ptrace.Aggregate(tr, true)
	for k := range attr.Phases {
		s.phases[k] += float64(attr.Phases[k])
	}
	s.phaseSpans += float64(attr.Spans)
	s.records += float64(len(tap.sparse.Records))
	s.packets += float64(ptrace.Aggregate(tr, false).Spans)
	return nil
}

// sink keeps the compiler from discarding a timed call's result.
var sink float64

// microWorkload is the span category of the micro-measurements.
const microWorkload = "micro"

// micro runs the layer measurements that no workload isolates. They do
// not depend on the workload, so a run takes them once and every
// workload's ledger carries them.
func micro(rec *recorder, sz size, seed uint64, scratch *scratchDir) (ledger, error) {
	l := ledger{}
	reps := sz.microReps
	id := rec.begin(0, "micro", microWorkload, "")
	defer func() { rec.end(id, 1) }()
	schemes := core.Schemes()
	ur := traffic.UniformRandom{}
	var err error
	// each times n calls of f inside one span and returns the mean.
	each := func(name string, n int, f func(i int)) time.Duration {
		sid := rec.begin(id, name, microWorkload, "")
		for i := 0; i < n && err == nil; i++ {
			f(i)
		}
		rec.end(sid, int64(n))
		sp := rec.spans[sid-1]
		return time.Duration((sp.EndNs - sp.StartNs) / int64(n))
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	l["traffic.new_injector_us"] = us(each("traffic.NewInjector", 50*reps, func(i int) {
		_, err = traffic.NewInjector(ur, 0.05, 64, 4, seed+uint64(i))
	}))
	l["traffic.parse_workload_us"] = us(each("traffic.ParseWorkload", 200*reps, func(int) {
		_, err = traffic.ParseWorkload(burstySpec)
	}))
	for _, n := range []int{64, 256} {
		n := n
		l[fmt.Sprintf("core.new_network_us.n%d", n)] = us(each("core.NewNetwork", len(schemes)*reps, func(i int) {
			cfg := core.DefaultConfig(schemes[i%len(schemes)])
			cfg.Nodes = n
			_, err = core.NewNetwork(cfg, sim.ShortWindow())
		}))
	}
	if err != nil {
		return nil, err
	}

	// The skip-ahead path, two ways: a quiescent network, and a sparse
	// tape whose gaps Tape.Run covers with RunCycles.
	idle := int64(25_000 * reps)
	l["core.idle_ns_per_cycle"] = float64(each("core.Network.RunCycles.idle", len(schemes), func(i int) {
		var net *core.Network
		net, err = core.NewNetwork(core.DefaultConfig(schemes[i]), sim.Window{Measure: idle})
		if err == nil {
			net.RunCycles(idle)
		}
	}).Nanoseconds()) / float64(idle)
	win := sz.window(sim.Window{Warmup: 1000, Measure: 4000, Drain: 1000})
	sparse, err := traffic.RecordTape(ur, 0.002, 64, 4, seed, win.Warmup+win.Measure)
	if err != nil {
		return nil, err
	}
	l["traffic.tape_replay_ns_per_cycle"] = float64(each("traffic.Tape.Run", len(schemes), func(i int) {
		var net *core.Network
		net, err = core.NewNetwork(core.DefaultConfig(schemes[i]), win)
		if err == nil {
			_, err = sparse.Run(net)
		}
	}).Nanoseconds()) / float64(win.Total())
	if err != nil {
		return nil, err
	}

	// Per-point overheads above the simulation itself: a window too short
	// to simulate anything leaves construction, supervision and journaling.
	null := exp.QuickOptions()
	null.Seed = seed
	null.Window = sim.Window{Measure: 8, Drain: 8}
	null.Parallel = farmWorkers
	l["exp.run_point_overhead_us"] = us(each("exp.RunPoint.null", len(schemes)*reps, func(i int) {
		_, err = exp.RunPoint(exp.Point{Scheme: schemes[i%len(schemes)], Pattern: ur, Rate: 0.05}, null)
	}))
	if err != nil {
		return nil, err
	}
	g, err := farm.Build(sz.nullGrid, null)
	if err != nil {
		return nil, err
	}
	points := float64(len(g.Points))
	journal, err := scratch.path("null-manifest.jsonl")
	if err != nil {
		return nil, err
	}
	synced, err := scratch.path("null-manifest-sync.jsonl")
	if err != nil {
		return nil, err
	}
	// The overheads are small differences between runs of a fixed amount
	// of work, so each is the fastest of its repeats: the one least
	// disturbed.
	fastest := func(name string, f func()) float64 {
		best := math.Inf(1)
		for i := 0; i < 2*reps && err == nil; i++ {
			best = math.Min(best, us(rec.time(id, name, f)))
		}
		return best
	}
	farmRun := func(name string, cfg farm.Config) float64 {
		cfg.Workers = farmWorkers
		return fastest(name, func() {
			var rep *farm.GridReport
			if rep, err = farm.Run(g, cfg); err == nil && !rep.Complete() {
				err = fmt.Errorf("bench: %s: null grid did not complete", name)
			}
		})
	}
	bare := fastest("exp.RunPoints.null", func() { _, err = exp.RunPoints(g.Points, null) })
	supervised := farmRun("farm.Run.null", farm.Config{})
	journaled := farmRun("farm.Run.null.manifest", farm.Config{Manifest: journal})
	fsynced := farmRun("farm.Run.null.fsync", farm.Config{Manifest: synced, Sync: true})
	resumed := farmRun("farm.Run.null.resume", farm.Config{Manifest: journal, Resume: true})
	if err != nil {
		return nil, err
	}
	// Each step's own cost: what it adds over the step before it.
	l["exp.run_points_us_per_point_null"] = bare / points
	l["farm.supervise_us_per_point"] = (supervised - bare) / points
	l["farm.manifest_us_per_point"] = (journaled - supervised) / points
	l["farm.fsync_us_per_point"] = (fsynced - journaled) / points
	l["farm.resume_us_per_point"] = resumed / points

	// The analytical twin: what a `plan` query costs.
	models := make([]*twin.Model, len(schemes))
	l["twin.new_us"] = us(each("twin.New", len(schemes)*10*reps, func(i int) {
		models[i%len(schemes)], err = twin.NewDefault(schemes[i%len(schemes)])
	}))
	if err != nil {
		return nil, err
	}
	l["twin.predict_ns"] = float64(each("twin.Model.Predict", 2000*reps, func(i int) {
		sink += models[i%len(schemes)].Predict(0.05).Mean
	}).Nanoseconds())
	l["twin.capacity_us"] = us(each("twin.Model.CapacityFor", 20*reps, func(i int) {
		sink += models[i%len(schemes)].CapacityFor(30, false).Rate
	}))
	return l, nil
}

// printSelfTimes lists where the traced pass's host time went, by span
// name: self time is a span's duration minus what its child spans cover.
func printSelfTimes(w io.Writer, rec *recorder, workload string) {
	rows := rec.selfTimes(workload)
	fmt.Fprintf(w, "  %-34s %8s %12s %12s %12s\n", "span", "spans", "calls", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %8d %12d %12.2f %12.2f\n", r.name, r.spans, r.count,
			float64(r.total)/1e6, float64(r.selfNs)/1e6)
	}
}
