package core_test

import (
	"fmt"
	"testing"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// TestAckTimingExactlyRPlus1 pins §IV-C at the packet level: under DHS the
// gap between a launch and the sender's release of the packet (its ACK) is
// exactly R+1 cycles, for senders at every ring position. The constancy is
// what makes 1-bit handshake messages with scheduled detector activation
// feasible in hardware.
func TestAckTimingExactlyRPlus1(t *testing.T) {
	cfg := core.DefaultConfig(core.DHS)
	cfg.Fairness.Enabled = false
	for _, src := range []int{1, 9, 33, 63} {
		net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
		if err != nil {
			t.Fatal(err)
		}
		net.RunCycles(int64(cfg.RoundTrip))
		// Two packets: the second becomes launchable exactly when the
		// first's ACK arrives (HoldHead), so the launch gap measures the
		// handshake delay. The second must already be queued.
		launched := snapshotOn(net, core.EvLaunch)
		id1 := net.Inject(src*cfg.CoresPerNode, 0, router.ClassData, 0)
		id2 := net.Inject(src*cfg.CoresPerNode, 0, router.ClassData, 0)
		for i := 0; i < 80 && len(launched.byID) < 2; i++ {
			net.Step()
		}
		if len(launched.byID) < 2 {
			t.Fatalf("src %d: second packet never launched", src)
		}
		p1, p2 := launched.byID[id1], launched.byID[id2]
		// ACK arrives at p1.FirstSentAt + R + 1; p2 becomes ready that
		// cycle and, with tokens streaming every cycle, launches in the
		// next token opportunity (the same or next cycle).
		gap := p2.FirstSentAt - p1.FirstSentAt
		want := int64(cfg.RoundTrip + 1)
		if gap != want && gap != want+1 {
			t.Errorf("src %d: launch gap %d, want ACK delay %d (+1 for token alignment)", src, gap, want)
		}
	}
}

// TestTokenChannelReimburseOnlyAtHome: the Fig 2(a) mechanism in isolation
// — a freed credit is unusable until the token passes the home node.
func TestTokenChannelReimburseOnlyAtHome(t *testing.T) {
	cfg := core.DefaultConfig(core.TokenChannel)
	cfg.Nodes = 8
	cfg.CoresPerNode = 1
	cfg.RoundTrip = 8 // token moves one node per cycle
	cfg.BufferDepth = 1
	cfg.Fairness.Enabled = false
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Sender at node 1 with two packets; one credit total. The second
	// packet can only launch after (a) the first is delivered and ejected
	// and (b) the token has passed home to collect the credit and come
	// back around to node 1.
	launched := snapshotOn(net, core.EvLaunch)
	id1 := net.Inject(1, 0, router.ClassData, 0)
	id2 := net.Inject(1, 0, router.ClassData, 0)
	for i := 0; i < 200 && len(launched.byID) < 2; i++ {
		net.Step()
	}
	if len(launched.byID) < 2 {
		t.Fatal("packets never launched")
	}
	p1, p2 := launched.byID[id1], launched.byID[id2]
	gap := p2.FirstSentAt - p1.FirstSentAt
	// Lower bound: delivery of p1 (flight 8 from offset 1) plus the
	// token's return to home and travel back to node 1 — more than one
	// full loop.
	if gap < int64(cfg.RoundTrip) {
		t.Fatalf("second credit usable after only %d cycles — reimbursement must wait for a home pass", gap)
	}
}

// TestConfigFuzz drives random valid configurations briefly; the per-cycle
// invariant checks turn any protocol corruption into a panic.
func TestConfigFuzz(t *testing.T) {
	rng := sim.NewRNG(0xF122)
	rts := []int{4, 8, 16}
	for trial := 0; trial < 24; trial++ {
		scheme := core.Schemes()[rng.Intn(len(core.Schemes()))]
		cfg := core.DefaultConfig(scheme)
		cfg.RoundTrip = rts[rng.Intn(len(rts))]
		cfg.BufferDepth = 1 + rng.Intn(12)
		cfg.SetasideSize = 1 + rng.Intn(6)
		cfg.CoresPerNode = 1 + rng.Intn(4)
		cfg.EjectRate = 1 + rng.Intn(2)
		cfg.EjectStallProb = float64(rng.Intn(5)) * 0.1
		cfg.QueueCap = rng.Intn(2) * 16
		// A discarded draw: it keeps every later trial's draws, and so the
		// subtest names, where they have always been.
		_ = rng.Intn(3)
		cfg.Seed = rng.Uint64()
		name := fmt.Sprintf("%v/rt%d/d%d", scheme, cfg.RoundTrip, cfg.BufferDepth)
		t.Run(name, func(t *testing.T) {
			net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
			if err != nil {
				t.Fatal(err)
			}
			inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.04+0.1*rng.Float64(),
				cfg.Nodes, cfg.CoresPerNode, rng.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			for cyc := 0; cyc < 600; cyc++ {
				inj.Tick(net)
				net.Step()
			}
			net.Drain(60_000)
			st := net.Stats()
			if st.QueueRejected == 0 && st.Delivered != st.Injected {
				t.Fatalf("lost packets: %d of %d (drops %d retx %d circ %d)",
					st.Delivered, st.Injected, st.Drops, st.Retransmits, st.Circulations)
			}
		})
	}
}

// TestGlobalTokenNeverTwoHolders: under GHS, at most one node can be
// launching on a given channel per cycle; the data channel's stream
// booking plus the strict per-cycle arrival bound enforce it, and the
// diagnostics expose it.
func TestGlobalTokenNeverTwoHolders(t *testing.T) {
	cfg := core.DefaultConfig(core.GHSSetaside)
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(traffic.Hotspot{Hot: 5, Fraction: 0.6}, 0.1, cfg.Nodes, cfg.CoresPerNode, 77)
	if err != nil {
		t.Fatal(err)
	}
	inj.Run(net)
	for _, d := range net.Diagnostics() {
		if d.PeakInFlight > cfg.RoundTrip+2 {
			t.Fatalf("home %d: %d flits in flight — more than one concurrent writer", d.Home, d.PeakInFlight)
		}
	}
}
