package core_test

import (
	"testing"

	"photon/internal/core"
	"photon/internal/ring"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// TestDeterminism: identical configuration and seed must give bit-identical
// results — the repeatability contract of the whole simulator.
func TestDeterminism(t *testing.T) {
	for _, s := range core.Schemes() {
		run := func() core.Result {
			cfg := core.DefaultConfig(s)
			cfg.EjectStallProb = 0.2 // exercise the stochastic path too
			net, err := core.NewNetwork(cfg, sim.ShortWindow())
			if err != nil {
				t.Fatal(err)
			}
			inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.08, cfg.Nodes, cfg.CoresPerNode, 11)
			if err != nil {
				t.Fatal(err)
			}
			return inj.Run(net)
		}
		a, b := run(), run()
		if a != b {
			t.Fatalf("%v: identical runs diverged:\n%+v\n%+v", s, a, b)
		}
	}
}

// TestPacketConservation: at every point of a run, every injected packet is
// delivered, dropped-and-retried (still owned), or in the backlog.
func TestPacketConservation(t *testing.T) {
	for _, s := range core.Schemes() {
		cfg := core.DefaultConfig(s)
		cfg.EjectStallProb = 0.3 // force drops/circulation
		net, err := core.NewNetwork(cfg, sim.ShortWindow())
		if err != nil {
			t.Fatal(err)
		}
		inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.10, cfg.Nodes, cfg.CoresPerNode, 5)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := 0; cyc < 2000; cyc++ {
			inj.Tick(net)
			net.Step()
			st := net.Stats()
			if st.Delivered > st.Injected {
				t.Fatalf("%v cycle %d: delivered %d exceeds injected %d", s, cyc, st.Delivered, st.Injected)
			}
			// Backlog locates every undelivered packet exactly once, so
			// conservation is an equality at every cycle boundary.
			backlog := net.Accounting().Backlog
			if int64(backlog) != st.Injected-st.Delivered {
				t.Fatalf("%v cycle %d: backlog %d != %d undelivered packets",
					s, cyc, backlog, st.Injected-st.Delivered)
			}
			// Outstanding (retention copies included) can only over-count.
			if net.Outstanding() < backlog {
				t.Fatalf("%v cycle %d: outstanding %d under-counts backlog %d",
					s, cyc, net.Outstanding(), backlog)
			}
		}
		// Everything must drain once injection stops.
		if left, err := net.Drain(20_000); err != nil {
			t.Fatalf("%v: %d packets stuck after drain: %v", s, left, err)
		}
		st := net.Stats()
		if st.Delivered != st.Injected {
			t.Fatalf("%v: delivered %d of %d", s, st.Delivered, st.Injected)
		}
	}
}

// TestHandshakeRecoversFromDrops: with heavy receiver-side stalls the
// handshake schemes must drop (NACK) packets and still deliver every one
// via retransmission — the reliability contract of §III.
func TestHandshakeRecoversFromDrops(t *testing.T) {
	for _, s := range []core.Scheme{core.GHS, core.GHSSetaside, core.DHS, core.DHSSetaside} {
		cfg := core.DefaultConfig(s)
		cfg.EjectStallProb = 0.5
		cfg.BufferDepth = 2
		net, err := core.NewNetwork(cfg, sim.ShortWindow())
		if err != nil {
			t.Fatal(err)
		}
		inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.08, cfg.Nodes, cfg.CoresPerNode, 3)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := 0; cyc < 3000; cyc++ {
			inj.Tick(net)
			net.Step()
		}
		net.Drain(50_000)
		st := net.Stats()
		if st.Drops == 0 {
			t.Errorf("%v: no drops under 50%% eject stalls and depth 2 — NACK path untested", s)
		}
		if st.Retransmits < st.Drops {
			t.Errorf("%v: %d drops but only %d retransmissions", s, st.Drops, st.Retransmits)
		}
		if st.Delivered != st.Injected {
			t.Errorf("%v: lost packets: delivered %d of %d", s, st.Delivered, st.Injected)
		}
	}
}

// TestCirculationRecovers: same reliability contract for DHS-circulation,
// via reinjection instead of drops.
func TestCirculationRecovers(t *testing.T) {
	cfg := core.DefaultConfig(core.DHSCirculation)
	cfg.EjectStallProb = 0.5
	cfg.BufferDepth = 2
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.08, cfg.Nodes, cfg.CoresPerNode, 3)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 3000; cyc++ {
		inj.Tick(net)
		net.Step()
	}
	net.Drain(50_000)
	st := net.Stats()
	if st.Circulations == 0 {
		t.Error("no circulations under heavy stalls")
	}
	if st.Drops != 0 || st.Retransmits != 0 {
		t.Errorf("circulation scheme dropped (%d) or retransmitted (%d)", st.Drops, st.Retransmits)
	}
	if st.Delivered != st.Injected {
		t.Errorf("lost packets: delivered %d of %d", st.Delivered, st.Injected)
	}
}

// TestDropRateBelowOnePercent reproduces the paper's §V-B claim: "even with
// high injection rates, the packet dropping and retransmission rates are
// below 1%" — under the evaluation's default (uncontended-receiver)
// configuration.
func TestDropRateBelowOnePercent(t *testing.T) {
	for _, s := range []core.Scheme{core.GHSSetaside, core.DHSSetaside, core.DHSCirculation} {
		cfg := core.DefaultConfig(s)
		net, err := core.NewNetwork(cfg, sim.ShortWindow())
		if err != nil {
			t.Fatal(err)
		}
		inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.21, cfg.Nodes, cfg.CoresPerNode, 13)
		if err != nil {
			t.Fatal(err)
		}
		res := inj.Run(net)
		if res.DropRate > 0.01 {
			t.Errorf("%v: drop rate %.4f above 1%% at high load", s, res.DropRate)
		}
		if res.CirculationRate > 0.01 {
			t.Errorf("%v: circulation rate %.4f above 1%%", s, res.CirculationRate)
		}
	}
}

// TestFig2aPathology reconstructs the motivating example of Figure 2(a):
// under Token Channel, a sender that finds the token drained by an
// upstream competitor must wait for the token to complete a loop, be
// reimbursed at the home, and come around again; GHS decouples arbitration
// from flow control and cuts that wait (Figure 4).
func TestFig2aPathology(t *testing.T) {
	wait := func(scheme core.Scheme) int64 {
		cfg := core.DefaultConfig(scheme)
		cfg.Nodes = 8
		cfg.CoresPerNode = 1
		cfg.RoundTrip = 8 // light moves 1 node/cycle, like the figure
		cfg.BufferDepth = 2
		cfg.EjectStallProb = 0.9 // the home frees buffers slowly
		cfg.Fairness.Enabled = false
		net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
		if err != nil {
			t.Fatal(err)
		}
		// S1 (node 1) floods the home (node 0) and drains the credits;
		// S2 (node 2) then wants to send one packet.
		for i := 0; i < 4; i++ {
			net.Inject(1, 0, router.ClassData, 0)
		}
		launched := snapshotOn(net, core.EvLaunch)
		probe := ^uint64(0)
		for cyc := 0; cyc < 400; cyc++ {
			if cyc == 6 {
				probe = net.Inject(2, 0, router.ClassData, 0)
			}
			net.Step()
			if p, ok := launched.byID[probe]; ok {
				return p.FirstSentAt - p.ReadyAt
			}
		}
		t.Fatalf("%v: probe never launched", scheme)
		return 0
	}
	tc := wait(core.TokenChannel)
	ghs := wait(core.GHS)
	if tc <= ghs {
		t.Fatalf("Token Channel wait %d not above GHS wait %d (Fig 2a vs Fig 4)", tc, ghs)
	}
	// The Token Channel wait must include at least one extra loop.
	if tc-ghs < 4 {
		t.Fatalf("credit pathology too small: TC %d vs GHS %d", tc, ghs)
	}
}

// TestZeroLoadLatencyFormula pins the exact end-to-end timing of one DHS
// packet on an idle network: router pipeline (2) + first token capture (1)
// + optical flight + ejection (1 cycle + EjectLatency 1).
func TestZeroLoadLatencyFormula(t *testing.T) {
	cfg := core.DefaultConfig(core.DHS)
	cfg.Fairness.Enabled = false
	geom, err := ring.NewGeometry(cfg.Nodes, cfg.RoundTrip)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{1, 8, 9, 32, 63} {
		net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
		if err != nil {
			t.Fatal(err)
		}
		// Let the token stream fill the loop first (cold start aside, a
		// token of every age is in flight in steady state).
		net.RunCycles(int64(cfg.RoundTrip))
		delivered := snapshotOn(net, core.EvDeliver)
		id := net.Inject(src*cfg.CoresPerNode, 0, router.ClassData, 0)
		for i := 0; i < 50 && len(delivered.byID) == 0; i++ {
			net.Step()
		}
		pkt, ok := delivered.byID[id]
		if !ok {
			t.Fatalf("src %d: never delivered", src)
		}
		off := geom.Offset(0, src)
		want := int64(cfg.RouterPipeline) + 1 + int64(geom.FlightToHome(off)) + int64(cfg.EjectLatency)
		if pkt.Latency() != want {
			t.Errorf("src %d: latency %d, want %d", src, pkt.Latency(), want)
		}
	}
}

// TestLocalTrafficBypassesRing: a packet to the source's own node never
// touches the optical channels and completes in router time.
func TestLocalTrafficBypassesRing(t *testing.T) {
	cfg := core.DefaultConfig(core.DHSSetaside)
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	delivered := snapshotOn(net, core.EvDeliver)
	id := net.Inject(12, 3, router.ClassData, 0) // core 12 is on node 3
	for i := 0; i < 10 && len(delivered.byID) == 0; i++ {
		net.Step()
	}
	pkt, ok := delivered.byID[id]
	if !ok {
		t.Fatal("local packet never delivered")
	}
	want := int64(cfg.RouterPipeline + cfg.EjectLatency)
	if pkt.Latency() != want {
		t.Fatalf("local latency %d, want %d", pkt.Latency(), want)
	}
	if net.Stats().Launches != 0 {
		t.Fatal("local packet was launched optically")
	}
	if net.Stats().LocalDelivered != 1 {
		t.Fatal("local delivery not counted")
	}
}

// TestCreditIndependence is Figure 11's property as a test: the handshake
// schemes' latency must be (nearly) independent of the credit count, while
// Token Slot's saturation visibly depends on it (Figure 2(b)).
func TestCreditIndependence(t *testing.T) {
	latency := func(s core.Scheme, credits int) float64 {
		cfg := core.DefaultConfig(s)
		cfg.BufferDepth = credits
		net, err := core.NewNetwork(cfg, sim.ShortWindow())
		if err != nil {
			t.Fatal(err)
		}
		inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.11, cfg.Nodes, cfg.CoresPerNode, 17)
		if err != nil {
			t.Fatal(err)
		}
		return inj.Run(net).AvgLatency
	}
	for _, s := range []core.Scheme{core.GHSSetaside, core.DHSSetaside, core.DHSCirculation} {
		l4, l32 := latency(s, 4), latency(s, 32)
		if ratio := l4 / l32; ratio > 1.25 || ratio < 0.8 {
			t.Errorf("%v: latency 4 credits %.1f vs 32 credits %.1f — not credit-independent", s, l4, l32)
		}
	}
	// The baseline, by contrast, collapses at 4 credits under 0.11 load.
	l4, l32 := latency(core.TokenSlot, 4), latency(core.TokenSlot, 32)
	if l4 < 3*l32 {
		t.Errorf("Token Slot with 4 credits (%.1f) should be far worse than with 32 (%.1f)", l4, l32)
	}
}

// TestFairnessPolicyPreventsStarvation: node 1, just downstream of the
// home, saturates the home's channel; every token is polled at node 1
// first, so a single probe packet from node 2 starves forever without the
// fairness quota and is served within one quota window with it (§III-D).
// The quota is window-granular: the hog is entitled to its allowance
// (Window/2 with two contenders) before it must yield, so the bound is
// about half a window, not immediate service.
func TestFairnessPolicyPreventsStarvation(t *testing.T) {
	probeWait := func(enabled bool) int64 {
		cfg := core.DefaultConfig(core.DHSSetaside)
		cfg.Fairness.Enabled = enabled
		net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
		if err != nil {
			t.Fatal(err)
		}
		launched := snapshotOn(net, core.EvLaunch)
		probe := ^uint64(0)
		for cyc := 0; cyc < 600; cyc++ {
			// Node 1 floods home 0 from all four cores, every cycle.
			for q := 0; q < cfg.CoresPerNode; q++ {
				net.Inject(1*cfg.CoresPerNode+q, 0, router.ClassData, 0)
			}
			if cyc == 100 {
				probe = net.Inject(2*cfg.CoresPerNode, 0, router.ClassData, 0)
			}
			net.Step()
			if p, ok := launched.byID[probe]; ok {
				return p.FirstSentAt - p.ReadyAt
			}
		}
		return 1 << 30 // starved for the whole run
	}
	with, without := probeWait(true), probeWait(false)
	if without < 400 {
		t.Errorf("without the policy the probe was served in %d cycles — contention scenario broken", without)
	}
	window := core.DefaultConfig(core.DHSSetaside).Fairness.Window
	if with > window {
		t.Errorf("with the policy the probe waited %d cycles, beyond one %d-cycle quota window", with, window)
	}
}

// TestBoundedQueueThrottles: with a finite output queue the network rejects
// excess injections instead of queueing unboundedly.
func TestBoundedQueueThrottles(t *testing.T) {
	cfg := core.DefaultConfig(core.TokenChannel)
	cfg.QueueCap = 4
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.25, cfg.Nodes, cfg.CoresPerNode, 29)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 2000; cyc++ {
		inj.Tick(net)
		net.Step()
	}
	if net.Stats().QueueRejected == 0 {
		t.Fatal("overloaded bounded queues rejected nothing")
	}
	// Queue occupancy must respect the bound.
	for _, d := range net.Diagnostics() {
		_ = d
	}
}

// TestMeasurementWindowing: packets injected before the warmup or after the
// measurement window must not contribute to measured statistics.
func TestMeasurementWindowing(t *testing.T) {
	cfg := core.DefaultConfig(core.DHSSetaside)
	w := sim.Window{Warmup: 100, Measure: 200, Drain: 100}
	net, err := core.NewNetwork(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// One packet in each phase.
	net.Inject(4, 9, router.ClassData, 0) // warmup
	for net.Now() < 150 {
		net.Step()
	}
	net.Inject(4, 9, router.ClassData, 0) // measure
	for net.Now() < 320 {
		net.Step()
	}
	net.Inject(4, 9, router.ClassData, 0) // drain
	for net.Now() < w.Total() {
		net.Step()
	}
	st := net.Stats()
	if st.Injected != 3 || st.InjectedMeasured != 1 {
		t.Fatalf("injected %d measured %d, want 3/1", st.Injected, st.InjectedMeasured)
	}
	if st.DeliveredMeasured != 1 {
		t.Fatalf("delivered measured %d, want 1", st.DeliveredMeasured)
	}
}

// TestGHSBurstBoundedBySetaside: a GHS token holder streams consecutive
// packets while its setaside has room, then must release.
func TestGHSBurstBoundedBySetaside(t *testing.T) {
	cfg := core.DefaultConfig(core.GHSSetaside)
	cfg.Nodes = 8
	cfg.CoresPerNode = 1
	cfg.RoundTrip = 8
	cfg.SetasideSize = 3
	cfg.Fairness.Enabled = false
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 has 6 packets for home 0 ready before the token arrives.
	launched := snapshotOn(net, core.EvLaunch)
	var ids []uint64
	for i := 0; i < 6; i++ {
		ids = append(ids, net.Inject(1, 0, router.ClassData, 0))
	}
	// The token marches one node per cycle on this 8-node loop and comes
	// back to node 1 after a full revolution; run long enough to see the
	// whole first burst.
	for i := 0; i < 2*cfg.RoundTrip; i++ {
		net.Step()
	}
	// Count consecutive-cycle launches in the first burst.
	burst := 1
	for i := 1; i < len(ids); i++ {
		prev, ok0 := launched.byID[ids[i-1]]
		cur, ok1 := launched.byID[ids[i]]
		if ok0 && ok1 && cur.FirstSentAt == prev.FirstSentAt+1 {
			burst++
		} else {
			break
		}
	}
	if burst != cfg.SetasideSize {
		t.Fatalf("first burst %d launches, want setaside size %d", burst, cfg.SetasideSize)
	}
}

// TestOnDeliverHook: the delivery callback fires exactly once per packet.
func TestOnDeliverHook(t *testing.T) {
	cfg := core.DefaultConfig(core.TokenSlot)
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	net.OnDeliver = func(p *router.Packet) { seen[p.ID]++ }
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.05, cfg.Nodes, cfg.CoresPerNode, 31)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 1000; cyc++ {
		inj.Tick(net)
		net.Step()
	}
	net.Drain(5000)
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("packet %d delivered %d times", id, n)
		}
	}
	if int64(len(seen)) != net.Stats().Delivered {
		t.Fatalf("hook saw %d, stats say %d", len(seen), net.Stats().Delivered)
	}
}

// TestInjectPanicsOnBadArgs: out-of-range cores and nodes are programming
// errors and must fail loudly.
func TestInjectPanicsOnBadArgs(t *testing.T) {
	cfg := core.DefaultConfig(core.DHS)
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"core": func() { net.Inject(cfg.Cores(), 0, router.ClassData, 0) },
		"node": func() { net.Inject(0, cfg.Nodes, router.ClassData, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad Inject did not panic", name)
				}
			}()
			f()
		}()
	}
}
