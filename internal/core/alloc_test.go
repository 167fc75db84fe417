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
// off its own free list (invariants off, as production sweeps drive it).
//
// The window is all warmup so no packet is marked measured: the latency
// histograms never record during the guard, removing their amortised bin
// growth — the only legitimate allocation a cycle could otherwise perform.
// The offered rate is 0.10 where the scheme sustains it; basic GHS saturates
// near 0.065, beyond which its backlog — and with it the population of live
// packets — grows every cycle and no free list can cover it, so it is
// guarded at 0.06. The 128-node ring covers the multi-word requester set.
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
		for i := 0; i < 2000; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Errorf("Tick+Step allocates %.2f times per cycle on the warmed hot path; want 0", avg)
		}
	}
	for _, s := range core.Schemes() {
		rate := 0.10
		if s == core.GHS {
			rate = 0.06
		}
		t.Run(s.String(), func(t *testing.T) { guard(t, core.DefaultConfig(s), rate) })
	}
	t.Run("128-node ring", func(t *testing.T) {
		cfg := core.DefaultConfig(core.DHSSetaside)
		cfg.Nodes = 128
		guard(t, cfg, 0.10)
	})
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
// network drains, skip-ahead cycles must be allocation-free too.
func TestRunCyclesZeroAlloc(t *testing.T) {
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			cfg := core.DefaultConfig(s)
			cfg.CheckInvariants = false
			net, err := core.NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}
			inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.10, cfg.Nodes, cfg.CoresPerNode, cfg.Seed)
			if err != nil {
				t.Fatalf("NewInjector: %v", err)
			}
			for i := 0; i < 500; i++ {
				inj.Tick(net)
				net.Step()
			}
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
