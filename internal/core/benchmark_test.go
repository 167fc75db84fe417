package core_test

import (
	"testing"

	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// benchWindow is effectively unbounded so a benchmark never crosses into
// the drain phase regardless of b.N.
var benchWindow = sim.Window{Warmup: 0, Measure: 1 << 40, Drain: 0}

// benchNetwork builds a default paper-configuration network plus a live
// uniform-random injector at a moderate sub-saturation load, the standard
// shape for hot-loop measurements. Invariant checks are off, to time the
// protocol alone: DefaultConfig, and so every sweep, runs with them on.
func benchNetwork(b *testing.B, s core.Scheme) (*core.Network, *traffic.Injector) {
	b.Helper()
	cfg := core.DefaultConfig(s)
	cfg.CheckInvariants = false
	net, err := core.NewNetwork(cfg, benchWindow)
	if err != nil {
		b.Fatalf("NewNetwork: %v", err)
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.05, cfg.Nodes, cfg.CoresPerNode, cfg.Seed)
	if err != nil {
		b.Fatalf("NewInjector: %v", err)
	}
	return net, inj
}

// BenchmarkStep measures one network cycle (injection + Step) per scheme.
func BenchmarkStep(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			net, inj := benchNetwork(b, s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inj.Tick(net)
				net.Step()
			}
		})
	}
}

// countTap is a minimal Tracer for overhead measurement.
type countTap struct{ n uint64 }

func (t *countTap) Observe(core.Event) { t.n++ }

// BenchmarkStepTraced is BenchmarkStep with a minimal event tap armed —
// diff against BenchmarkStep to see the marginal cost of observing the
// lifecycle stream (bench/ reports the same pair as core.step_ns_per_cycle
// and core.tap_ns_per_event).
func BenchmarkStepTraced(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			net, inj := benchNetwork(b, s)
			net.SetTracer(&countTap{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inj.Tick(net)
				net.Step()
			}
		})
	}
}

// BenchmarkRunCycles measures a 1000-cycle block per scheme, amortising
// per-call overhead the way sweeps drive the network; b.N counts blocks,
// so cycles/sec is 1000*N/elapsed.
func BenchmarkRunCycles(b *testing.B) {
	const block = 1000
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			net, inj := benchNetwork(b, s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < block; c++ {
					inj.Tick(net)
					net.Step()
				}
			}
		})
	}
}
