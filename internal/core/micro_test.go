package core_test

import (
	"testing"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/sim"
)

// mustNet builds a small network for microscopic protocol tests: 8 nodes,
// 1 core per node, round trip 8 (so light moves 1 node per cycle, matching
// the paper's walk-through figures).
func mustNet(t testing.TB, scheme core.Scheme, mod func(*core.Config)) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig(scheme)
	cfg.Nodes = 8
	cfg.CoresPerNode = 1
	cfg.RoundTrip = 8
	cfg.Fairness.Enabled = false
	if mod != nil {
		mod(&cfg)
	}
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 30, Drain: 0})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return net
}

// TestBasicDHSHoldHeadPeriod checks the fundamental HoldHead limit: one
// saturated sender under basic DHS must deliver exactly one packet per
// R+1 cycles (the ACK delay) in steady state, because the queue head is
// pinned until its ACK returns.
func TestBasicDHSHoldHeadPeriod(t *testing.T) {
	net := mustNet(t, core.DHS, nil)
	const cycles = 2000
	for cyc := 0; cyc < cycles; cyc++ {
		// Saturated source: node 1 -> node 0, one injection per cycle.
		net.Inject(1, 0, router.ClassData, 0)
		net.Step()
	}
	delivered := net.Stats().Delivered
	period := float64(cycles) / float64(delivered)
	want := float64(net.Config().RoundTrip + 1)
	if period < want-0.5 {
		t.Fatalf("basic DHS sender period %.2f cycles, want >= ACK delay %.0f (HOL blocking violated; %d delivered in %d cycles)",
			period, want, delivered, cycles)
	}
	if period > want+3 {
		t.Errorf("basic DHS sender period %.2f cycles, want close to ACK delay %.0f", period, want)
	}
}

// TestSetasideDHSInFlightWindow checks that a saturated sender with S
// setaside slots keeps up to S packets in flight and therefore delivers
// about S packets per R+1-cycle ACK window (capped at 1/cycle).
func TestSetasideDHSInFlightWindow(t *testing.T) {
	for _, s := range []int{1, 2, 4} {
		net := mustNet(t, core.DHSSetaside, func(c *core.Config) { c.SetasideSize = s })
		const cycles = 2000
		for cyc := 0; cyc < cycles; cyc++ {
			net.Inject(1, 0, router.ClassData, 0)
			net.Step()
		}
		got := float64(net.Stats().Delivered) / float64(cycles)
		want := float64(s) / float64(net.Config().RoundTrip+1)
		if want > 1 {
			want = 1
		}
		if got < want*0.8 || got > want*1.2+0.02 {
			t.Errorf("setaside=%d: throughput %.3f pkt/cycle, want about %.3f", s, got, want)
		}
	}
}
