package core_test

import (
	"runtime"
	"testing"

	"photon/internal/arbiter"
	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// TestStepZeroAlloc is the hot-path alloc guard: after warmup, a network
// cycle — injection included — must allocate nothing for any scheme. Every
// per-cycle container (grant queue, delay-line buckets, eject scratch,
// setaside slots) is preallocated or bucket-reused, and a packet released by
// its last holder is the next injection's packet, so a warmed network lives
// off its own free list. The guard turns invariants off; production sweeps
// run with them on (DefaultConfig sets CheckInvariants), so it prices the
// engine without the per-cycle ledger check.
//
// The window is all warmup so no packet is marked measured: the latency
// histograms never record during the guard, removing their amortised bin
// growth — the only legitimate allocation a cycle could otherwise perform.
// The offered rate is guardRate's: below saturation, where the population
// of live packets stops growing. The warm-up lasts until a 1000-cycle block
// allocates nothing (warmUntilSteady). The 128-node ring covers the
// multi-word requester set.
func TestStepZeroAlloc(t *testing.T) {
	defer core.SetPoisonPackets(core.SetPoisonPackets(false)) // measure recycling, not poison
	guard := func(t *testing.T, cfg core.Config, rate float64) {
		cfg.CheckInvariants = false
		net, err := core.NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		inj, err := traffic.NewInjector(traffic.UniformRandom{}, rate, cfg.Nodes, cfg.CoresPerNode, cfg.Seed)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		cycle := func() {
			inj.Tick(net)
			net.Step()
		}
		warmUntilSteady(t, cycle)
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Errorf("Tick+Step allocates %.2f times per cycle on the warmed hot path; want 0", avg)
		}
	}
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) { guard(t, core.DefaultConfig(s), guardRate(s)) })
	}
	t.Run("128-node ring", func(t *testing.T) {
		cfg := core.DefaultConfig(core.DHSSetaside)
		cfg.Nodes = 128
		guard(t, cfg, 0.10)
	})
}

// guardRate is the offered rate of the zero-alloc guards: 0.10 where the
// scheme sustains it. Basic GHS saturates near 0.065, beyond which its
// backlog — and with it the population of live packets — grows every cycle
// and no free list can cover it, so it is guarded at 0.06.
func guardRate(s core.Scheme) float64 {
	if s == core.GHS {
		return 0.06
	}
	return 0.10
}

// warmUntilSteady runs cycle in 1000-cycle blocks until one block
// allocates nothing, so the zero-alloc assertion that follows measures the
// steady state, not whether a fixed warm-up outlasted the growth of every
// bucket and free list. A network still allocating after 30 blocks fails.
// TestStepZeroAlloc's networks (token-channel, token-slot, ghs,
// ghs-setaside, dhs, dhs-setaside, dhs-circulation, 128-node) need
// 4/4/25/11/23/21/4/25 blocks: a queued packet is a descriptor from a
// recycled segment, so only the heads, retained copies and flights set
// new highs of built packets. When every queued packet was a full Packet
// they needed 46/5/37/31/37/21/4/25.
func warmUntilSteady(t *testing.T, cycle func()) {
	t.Helper()
	const block, maxBlocks = 1000, 30
	var ms runtime.MemStats
	for b := 0; b < maxBlocks; b++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < block; i++ {
			cycle()
		}
		runtime.ReadMemStats(&ms)
		if ms.Mallocs == before {
			return
		}
	}
	t.Fatalf("every one of %d warm-up blocks of %d cycles allocated: no steady state to measure", maxBlocks, block)
}

// TestFairnessStateFitsInAKiB: a channel's fairness state on the 256-node
// ring — a one-bit requester set and a 16-bit capture count per node —
// stays under 1 KiB, so a whole network's 256 channels keep theirs in
// cache. The three epoch-stamp arrays it replaced took 5 KiB per channel.
func TestFairnessStateFitsInAKiB(t *testing.T) {
	const runs = 64
	keep := make([]*arbiter.Fairness, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = arbiter.NewFairness(256, arbiter.DefaultFairness())
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
		t.Errorf("NewFairness(256, DefaultFairness()) allocates %d B; want <= 1024", per)
	}
}

// TestRunCyclesZeroAlloc extends the guard to the idle fast path: once the
// network drains, skip-ahead cycles must be allocation-free too. The
// network is warmed to the same steady state as TestStepZeroAlloc's first,
// so a container that only grows under load is grown before the drain.
func TestRunCyclesZeroAlloc(t *testing.T) {
	defer core.SetPoisonPackets(core.SetPoisonPackets(false)) // warm up on recycled packets
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			cfg := core.DefaultConfig(s)
			cfg.CheckInvariants = false
			net, err := core.NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			inj, err := traffic.NewInjector(traffic.UniformRandom{}, guardRate(s), cfg.Nodes, cfg.CoresPerNode, cfg.Seed)
			if err != nil {
				t.Fatalf("NewInjector: %v", err)
			}
			warmUntilSteady(t, func() {
				inj.Tick(net)
				net.Step()
			})
			net.RunCycles(4096) // drain into quiescence
			if out := net.Outstanding(); out != 0 {
				t.Fatalf("network not quiescent after drain: %d outstanding", out)
			}
			if avg := testing.AllocsPerRun(50, func() { net.RunCycles(64) }); avg != 0 {
				t.Errorf("idle RunCycles allocates %.2f times per 64-cycle block; want 0", avg)
			}
		})
	}
}

// BenchmarkIdleRunCycles measures the idle fast path per scheme:
// nanoseconds per skipped cycle on a fully drained network — the cost a
// tape gap or drain tail pays per cycle after quiescence.
func BenchmarkIdleRunCycles(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			cfg := core.DefaultConfig(s)
			cfg.CheckInvariants = false
			net, err := core.NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
			if err != nil {
				b.Fatal(err)
			}
			inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.05, cfg.Nodes, cfg.CoresPerNode, cfg.Seed)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				inj.Tick(net)
				net.Step()
			}
			net.RunCycles(4096)
			if net.Outstanding() != 0 {
				b.Fatal("network not quiescent")
			}
			b.ResetTimer()
			net.RunCycles(int64(b.N))
		})
	}
}
