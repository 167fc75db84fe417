package core

import (
	"fmt"
	"testing"

	"photon/internal/router"
	"photon/internal/sim"
)

// In-package micro-benchmarks for the two hottest phases the campaign
// rewrote — the token scan and the queue scan — so a future regression in
// either localizes to one number instead of showing up only as a diffuse
// BenchmarkStep slowdown. These live in package core (not core_test)
// because they call unexported phase methods directly; traffic cannot be
// imported here (import cycle), so load is driven through Inject with a
// private RNG.

// loadedBenchNet builds a network with a deep, spread backlog so every
// want row has live requesters and every phase has work. The all-warmup
// window keeps packets unmeasured: the latency histograms never grow, so
// phase timings are free of amortised allocation noise.
func loadedBenchNet(b *testing.B, s Scheme, ringNodes int) *Network {
	b.Helper()
	cfg := DefaultConfig(s)
	cfg.Nodes = ringNodes
	cfg.CheckInvariants = false
	n, err := NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	cores := uint64(cfg.Cores())
	nodes := uint64(cfg.Nodes)
	for i := 0; i < 2000; i++ {
		for j := 0; j < 4; j++ {
			if rng.Uint64()%10 < 3 {
				n.Inject(int(rng.Uint64()%cores), int(rng.Uint64()%nodes), router.ClassData, 0)
			}
		}
		n.Step()
	}
	// Saturating burst: several packets per core, then just enough cycles
	// for the injection pipeline to land them in the output queues. The
	// backlog dwarfs per-cycle delivery capacity, so the requester
	// population stays dense for the whole benchmark.
	for c := uint64(0); c < cores; c++ {
		for j := 0; j < 4; j++ {
			n.Inject(int(c), int(rng.Uint64()%nodes), router.ClassData, 0)
		}
	}
	for i := 0; i < 2*cfg.RoundTrip; i++ {
		n.Step()
	}
	return n
}

// clearTokenPhaseEffects undoes the capture side effects one token-phase
// pass leaves behind — pending grants and held global tokens — so every
// benchmark iteration arbitrates over the same requester population
// instead of short-circuiting on "already granted/holding".
func clearTokenPhaseEffects(n *Network) {
	for _, g := range n.grants {
		g.node.granted = false
	}
	n.grants = n.grants[:0]
	for j := range n.chans {
		c := &n.chans[j]
		if c.glob == nil {
			continue
		}
		if off, held := c.glob.Held(); held {
			n.nodes[n.geom.NodeAt(c.home, off)].holding = -1
			c.glob.Release()
		}
	}
}

// BenchmarkTokenPhase times one full rotated token-phase sweep — fairness
// window roll, token motion, capture scan — across all channels of a
// loaded network, for one global-token scheme and one slot-token scheme,
// on the paper's 64-node ring and on a 256-node ring (four requester-set
// words per channel, 32 offsets per global-token sweep). The clock
// advances each iteration so slot expiry/emission behave as in a real
// cycle; capture effects are cleared so the requester set is stable.
func BenchmarkTokenPhase(b *testing.B) {
	for _, s := range []Scheme{TokenChannel, DHS} {
		for _, nodes := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/n%d", s, nodes), func(b *testing.B) {
				n := loadedBenchNet(b, s, nodes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now := n.now + int64(i)
					start := int(now) % len(n.chans)
					for j := range n.chans {
						n.phaseTokens(&n.chans[(start+j)%len(n.chans)], now)
					}
					clearTokenPhaseEffects(n)
				}
			})
		}
	}
}

// BenchmarkEmit times the per-event fixed cost every canonical protocol
// event pays with no observer attached — the run-digest fold — through
// Network.emit itself. Packet ids, node ids and the cycle take the sizes
// they have late in a saturated 64-node run, and the clock moves on every
// eight events (about the event density of such a cycle), so the
// per-cycle prefix is rebuilt as often as it would be live.
func BenchmarkEmit(b *testing.B) {
	n, err := NewNetwork(DefaultConfig(DHS), sim.Window{Warmup: 1 << 40, Measure: 1})
	if err != nil {
		b.Fatal(err)
	}
	n.now = 40_000
	pkts := make([]*router.Packet, 1<<12)
	for i := range pkts {
		pkts[i] = router.NewPacket(300_000+uint64(i)*7, i%64, (i*29+1)%64, n.now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.emit(EventType(i%int(firstTapOnly)), pkts[i%len(pkts)])
		if i%8 == 7 {
			n.now++
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkInject times Network.Inject alone on a warmed network — ns and
// bytes per injected packet, the in-package twin of bench/'s
// core.inject_ns_per_packet. Injections come in batches the free list
// already covers; the drain that hands each batch back runs off the clock.
func BenchmarkInject(b *testing.B) {
	cfg := DefaultConfig(DHSSetaside)
	cfg.CheckInvariants = false
	n, err := NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 1 << 12
	fill := func(k int) {
		for i := 0; i < k; i++ {
			n.Inject(i%cfg.Cores(), (i*29+1)%cfg.Nodes, router.ClassData, 0)
		}
	}
	drain := func() {
		if _, err := n.Drain(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
	fill(batch)
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		fill(min(batch, b.N-done))
		b.StopTimer()
		drain()
		b.StartTimer()
	}
}

// BenchmarkSlotScan times the requester-driven capture scan for the single
// busiest channel of a loaded distributed-token network: the bitmask walk
// plus per-requester liveness probes, the inner loop the campaign inverted
// from the arbiter's O(roundTrip) segment sweep.
func BenchmarkSlotScan(b *testing.B) {
	n := loadedBenchNet(b, DHS, 64)
	best := 0
	for h := range n.chans {
		if n.wantNodes[h] > n.wantNodes[best] {
			best = h
		}
	}
	if n.wantNodes[best] == 0 {
		b.Fatal("no requesters after warmup")
	}
	c := &n.chans[best]
	now := n.now
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.slotScan(c, now, nil)
		for _, g := range n.grants {
			g.node.granted = false
		}
		n.grants = n.grants[:0]
	}
}

// BenchmarkQueueScan times the launch-side queue selection pair: the
// round-robin pickQueue walk over a node's per-core queues plus the
// updateQueueWant re-derivation that maintains the requester set.
func BenchmarkQueueScan(b *testing.B) {
	n := loadedBenchNet(b, DHS, 64)
	var nd *nodeState
	var h int
outer:
	for id := range n.nodes {
		for ch := range n.chans {
			if n.wants(ch, id) {
				nd, h = &n.nodes[id], ch
				break outer
			}
		}
	}
	if nd == nil {
		b.Fatal("no backlogged node after warmup")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, q, pkt := n.pickQueue(nd, h)
		if pkt == nil {
			b.Fatal("want row out of sync with its queue")
		}
		n.updateQueueWant(nd, q)
	}
}
