package check

import (
	"fmt"
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/ptrace"
	"photon/internal/sim"
	"photon/internal/traffic"
)

var spanWindow = sim.Window{Warmup: 300, Measure: 1000, Drain: 1000}

// tracedRun is what runTracedTape folds off the stream as spans flush.
type tracedRun struct {
	res           core.Result
	fold          SpanFold
	all, measured ptrace.Attribution // delivered spans; measured ones only
	acct          core.Accounting
}

// runTracedTape replays a tape with a streaming assembler armed, drains,
// closes the stream, and returns the result, the span folds and the final
// accounting snapshot.
func runTracedTape(t *testing.T, s core.Scheme, tape *traffic.Tape, drain int64) *tracedRun {
	t.Helper()
	cfg := core.DefaultConfig(s)
	cfg.Seed = 1
	net, err := core.NewNetwork(cfg, spanWindow)
	if err != nil {
		t.Fatal(err)
	}
	run := &tracedRun{}
	st := ptrace.NewStream(ptrace.StreamConfig{OnSpan: func(sp *ptrace.PacketSpan) error {
		run.all.AddSpan(sp, false)
		run.measured.AddSpan(sp, true)
		return run.fold.Add(sp)
	}})
	net.SetTracer(st)
	if run.res, err = tape.Run(net); err != nil {
		t.Fatal(err)
	}
	net.Drain(drain)
	if err := st.Close(); err != nil {
		t.Fatalf("%s: assembling trace: %v", s, err)
	}
	run.acct = net.Accounting()
	return run
}

// TestSpanInvariantBattery runs every registered scheme over a small load
// grid spanning sub-saturation, near-saturation, and past-saturation
// traffic, and checks the span algebra end to end: every assembled span
// is gap-free and non-overlapping, phase sums equal end-to-end latency
// for 100% of delivered packets, and the span aggregates reconcile
// exactly with the conservation ledger (AuditSpans).
func TestSpanInvariantBattery(t *testing.T) {
	for tapeIdx, load := range []float64{0.02, 0.13, 0.30} {
		cfg0 := core.DefaultConfig(core.TokenChannel)
		tape, err := traffic.RecordTape(traffic.UniformRandom{}, load, cfg0.Nodes, cfg0.CoresPerNode,
			sim.DeriveSeed(1, uint64(tapeIdx)), spanWindow.Warmup+spanWindow.Measure)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range core.Schemes() {
			t.Run(fmt.Sprintf("%s@%.2f", s, load), func(t *testing.T) {
				run := runTracedTape(t, s, tape, 20_000)
				if err := AuditSpans(&run.fold, run.acct); err != nil {
					t.Fatal(err)
				}
				if err := Audit(run.acct); err != nil {
					t.Fatal(err)
				}
				// The trace must cover the run: at least every measured
				// delivery the windowed result counted (the bounded drain
				// delivers more after Finish), all delivered at the ledger
				// level (AuditSpans checked the exact total).
				if run.res.Delivered == 0 {
					t.Fatal("no measured deliveries at this point")
				}
				if run.measured.Spans < run.res.Delivered {
					t.Fatalf("%d measured delivered spans, result counted %d", run.measured.Spans, run.res.Delivered)
				}
			})
		}
	}
}

// TestAuditSpansNamesMismatches: a fold that disagrees with the ledger,
// or holds a broken chain, fails the audit and names each difference.
func TestAuditSpansNamesMismatches(t *testing.T) {
	cfg0 := core.DefaultConfig(core.GHS)
	tape, err := traffic.RecordTape(traffic.UniformRandom{}, 0.05, cfg0.Nodes, cfg0.CoresPerNode,
		sim.DeriveSeed(1, 2), spanWindow.Warmup+spanWindow.Measure)
	if err != nil {
		t.Fatal(err)
	}
	run := runTracedTape(t, core.GHS, tape, 20_000)
	bad := run.fold
	bad.launches++
	bad.Add(&ptrace.PacketSpan{ID: 1 << 40, Injected: 5, Delivered: 4}) // chain ends at 5, not 4
	err = AuditSpans(&bad, run.acct)
	for _, want := range []string{"launches: trace", "spans vs injected", "delivered: trace", "span invariant"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("audit of a tampered fold: %v; want it to name %q", err, want)
		}
	}
	if err := AuditSpans(&run.fold, run.acct); err != nil {
		t.Fatalf("untampered fold: %v", err)
	}
}

// TestSpanSchemeShape: the phase mix must reflect each scheme's
// hardware — handshake-wait cycles only where a handshake waveguide
// exists, circulation cycles only on the circulating scheme, setaside
// residency only under the setaside send policy.
func TestSpanSchemeShape(t *testing.T) {
	cfg0 := core.DefaultConfig(core.TokenChannel)
	tape, err := traffic.RecordTape(traffic.UniformRandom{}, 0.13, cfg0.Nodes, cfg0.CoresPerNode,
		sim.DeriveSeed(1, 1), spanWindow.Warmup+spanWindow.Measure)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range core.Schemes() {
		attr := runTracedTape(t, s, tape, 20_000).all
		if !s.Handshake() && (attr.Phases[ptrace.PhaseHandshakeWait] != 0 || attr.Phases[ptrace.PhaseRetxWait] != 0) {
			t.Errorf("%s: handshake phases on a scheme without a handshake line: %v", s, attr.Phases)
		}
		if !s.Circulating() && attr.Phases[ptrace.PhaseCirculation] != 0 {
			t.Errorf("%s: circulation cycles %d on a non-circulating scheme", s, attr.Phases[ptrace.PhaseCirculation])
		}
		if s.Circulating() && attr.Drops != 0 {
			t.Errorf("%s: %d drops on the circulating scheme", s, attr.Drops)
		}
		if attr.Phases[ptrace.PhaseFlight] == 0 {
			t.Errorf("%s: no flight cycles at a contended point", s)
		}
	}
}

// TestArmedTapReproducesPinnedDigests pins the tentpole's digest-inertness
// acceptance criterion: a run with the event tap armed must reproduce the
// EXPERIMENTS.md quick-grid digests (UR @ 0.13 column, seed 1, windows
// 300/1000/1000) bit for bit. Tap-only events exist outside the digest by
// construction; a shift here means the tap leaked into protocol behaviour.
func TestArmedTapReproducesPinnedDigests(t *testing.T) {
	want := map[core.Scheme]string{
		core.TokenChannel:   "9fa40151ac8c907c",
		core.TokenSlot:      "4ebced9eeaf9a211",
		core.GHS:            "52e0408d1b0d60e3",
		core.GHSSetaside:    "3318d9bec3d24eef",
		core.DHS:            "bd11d19c4b7206f4",
		core.DHSSetaside:    "236b458c65ca1419",
		core.DHSCirculation: "73671dbfc58a4992",
	}
	cfg0 := core.DefaultConfig(core.TokenChannel)
	tape, err := traffic.RecordTape(traffic.UniformRandom{}, 0.13, cfg0.Nodes, cfg0.CoresPerNode,
		sim.DeriveSeed(1, 1), spanWindow.Warmup+spanWindow.Measure)
	if err != nil {
		t.Fatal(err)
	}
	for s, wantHex := range want {
		cfg := core.DefaultConfig(s)
		cfg.Seed = 1
		net, err := core.NewNetwork(cfg, spanWindow)
		if err != nil {
			t.Fatal(err)
		}
		tap := &ptrace.Tap{}
		net.SetTracer(tap)
		res, err := tape.Run(net)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", res.Digest); got != wantHex {
			t.Errorf("%s: armed-tap digest %s != EXPERIMENTS.md digest %s", s, got, wantHex)
		}
		if len(tap.Records) == 0 {
			t.Errorf("%s: armed tap recorded nothing", s)
		}
	}
}

// TestChaosPointArmedTapDigestEquality: the tap must stay digest-inert
// under fault injection too — the same chaos point run with and without a
// tap produces identical results.
func TestChaosPointArmedTapDigestEquality(t *testing.T) {
	cfg0 := core.DefaultConfig(core.GHSSetaside)
	tape, err := traffic.RecordTape(traffic.UniformRandom{}, 0.02, cfg0.Nodes, cfg0.CoresPerNode,
		sim.DeriveSeed(1, 3), spanWindow.Warmup+spanWindow.Measure)
	if err != nil {
		t.Fatal(err)
	}
	run := func(withTap bool) core.Result {
		cfg := core.DefaultConfig(core.GHSSetaside)
		cfg.Seed = 1
		cfg.Fault = fault.Config{Enabled: true, Warmup: spanWindow.Warmup}
		cfg.Fault = cfg.Fault.SetClass(fault.PulseLoss, fault.ClassConfig{Rate: 0.01, Burst: 2})
		cfg.Recovery.Enabled = true
		net, err := core.NewNetwork(cfg, spanWindow)
		if err != nil {
			t.Fatal(err)
		}
		var tap *ptrace.Tap
		if withTap {
			tap = &ptrace.Tap{}
			net.SetTracer(tap)
		}
		res, err := tape.Run(net)
		if err != nil {
			t.Fatal(err)
		}
		net.Drain(60_000)
		if withTap {
			// The stream must still assemble (leniently) under faults.
			tr, err := ptrace.Assemble(tap.Records)
			if err != nil {
				t.Fatalf("assembling faulted trace: %v", err)
			}
			var faulted int
			for _, sp := range tr.Spans {
				if sp.Faulted {
					faulted++
				}
			}
			if res.FaultsInjected > 0 && faulted == 0 {
				t.Error("faults fired but no span was marked faulted")
			}
		}
		return res
	}
	plain := run(false)
	traced := run(true)
	if plain.Digest != traced.Digest || plain.DigestEvents != traced.DigestEvents {
		t.Fatalf("tap moved a chaos digest: plain %016x/%d, traced %016x/%d",
			plain.Digest, plain.DigestEvents, traced.Digest, traced.DigestEvents)
	}
	if plain.FaultsInjected == 0 {
		t.Fatal("chaos point fired no faults")
	}
}
