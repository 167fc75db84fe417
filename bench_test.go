// Engine micro-benchmarks and the ablation benches called out in
// DESIGN.md. The paper's tables and figures are not benchmarks: each is a
// catalog row (go run ./cmd/sweep -study <name>), and the claims it backs
// are the bands of cmd/sweep's claim table, checked on the row's quick
// stdout by TestPinnedStdout.
package photon_test

import (
	"strconv"
	"testing"

	"photon"
	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// BenchmarkNetworkStep measures the simulator engine itself: nanoseconds
// per simulated cycle of the full 64-node network under UR load, per
// scheme.
func BenchmarkNetworkStep(b *testing.B) {
	for _, s := range photon.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			cfg := photon.DefaultConfig(s)
			cfg.CheckInvariants = false
			benchStep(b, cfg)
		})
	}
}

// BenchmarkInvariantOverhead quantifies the cost of per-cycle invariant
// checking, which DefaultConfig turns on for every run.
func BenchmarkInvariantOverhead(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(onOff(on), func(b *testing.B) {
			cfg := photon.DefaultConfig(photon.TokenSlot)
			cfg.CheckInvariants = on
			benchStep(b, cfg)
		})
	}
}

// benchStep times one cycle (injection tick and step) of a network under
// UR at 0.09 packets/cycle/core.
func benchStep(b *testing.B, cfg photon.Config) {
	net, err := core.NewNetwork(cfg, sim.Window{Measure: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.09, cfg.Nodes, cfg.CoresPerNode, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Tick(net)
		net.Step()
	}
}

// BenchmarkAblationFairness measures the throughput cost of the well-served
// sit-out policy at a saturating load.
func BenchmarkAblationFairness(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(onOff(on), func(b *testing.B) {
			res := runQuick(b, exp.Point{
				Scheme:  photon.DHSSetaside,
				Pattern: traffic.UniformRandom{},
				Rate:    0.23,
				Mod:     func(c *core.Config) { c.Fairness.Enabled = on },
			})
			b.ReportMetric(res.Throughput, "sat_throughput")
			b.ReportMetric(res.FairnessSpread, "spread")
		})
	}
}

// BenchmarkAblationEjectRate exposes the hidden receiver-drain parameter
// behind credit return: Token Slot's saturation vs the home buffer's drain
// rate.
func BenchmarkAblationEjectRate(b *testing.B) {
	for _, rate := range []int{1, 2, 4} {
		b.Run("eject"+strconv.Itoa(rate), func(b *testing.B) {
			res := runQuick(b, exp.Point{
				Scheme:  photon.TokenSlot,
				Pattern: traffic.UniformRandom{},
				Rate:    0.21,
				Mod:     func(c *core.Config) { c.EjectRate = rate },
			})
			b.ReportMetric(res.Throughput, "throughput")
		})
	}
}

// runQuick runs p at quick fidelity once per iteration and returns the
// last result.
func runQuick(b *testing.B, p exp.Point) (res core.Result) {
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = exp.RunPoint(p, exp.QuickOptions()); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}
