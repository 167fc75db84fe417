// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus engine micro-benchmarks and the ablation benches called
// out in DESIGN.md.
//
// Figure benchmarks execute the corresponding experiment at reduced (quick)
// fidelity once per iteration and report the figure's headline quantity as
// a custom metric, so `go test -bench=. -benchmem` regenerates the whole
// evaluation and EXPERIMENTS.md can quote the metrics. Full-fidelity tables
// come from the cmd/ binaries.
package photon_test

import (
	"testing"

	"photon"
	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/sim"
	"photon/internal/traffic"
)

func quickOpts() exp.Options { return exp.QuickOptions() }

// BenchmarkFig2b — Token Slot latency vs load by credit count (Fig 2b).
// Metric: saturation throughput with 4 vs 32 credits.
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := exp.Figure("fig2b", quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(curves[0].SaturationThroughput(), "sat4_pkt/cyc/core")
		b.ReportMetric(curves[3].SaturationThroughput(), "sat32_pkt/cyc/core")
	}
}

func benchFig8or9(b *testing.B, study string, base, best core.Scheme) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		curves, err := exp.Figure(study, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var baseSat, bestSat float64
		for _, c := range curves {
			if c.Scheme == base {
				baseSat = c.SaturationThroughput()
			}
			if c.Scheme == best {
				bestSat = c.SaturationThroughput()
			}
		}
		b.ReportMetric(baseSat, "baseline_sat")
		b.ReportMetric(bestSat, "handshake_sat")
		if baseSat > 0 {
			b.ReportMetric(100*(bestSat-baseSat)/baseSat, "gain_%")
		}
	}
}

// BenchmarkFig8 — global-arbitration group (Token Channel vs GHS variants),
// one sub-benchmark per traffic pattern (Fig 8a-c).
func BenchmarkFig8(b *testing.B) {
	for _, pat := range []string{"UR", "BC", "TOR"} {
		b.Run(pat, func(b *testing.B) {
			benchFig8or9(b, "fig8:"+pat, core.TokenChannel, core.GHSSetaside)
		})
	}
}

// BenchmarkFig9 — distributed-arbitration group (Token Slot vs DHS
// variants), one sub-benchmark per traffic pattern (Fig 9a-c).
func BenchmarkFig9(b *testing.B) {
	for _, pat := range []string{"UR", "BC", "TOR"} {
		b.Run(pat, func(b *testing.B) {
			benchFig8or9(b, "fig9:"+pat, core.TokenSlot, core.DHSCirculation)
		})
	}
}

// BenchmarkFig10 — application-trace latency (Fig 10a/10b). Metrics: the
// average latency reduction of the enhanced handshake schemes over their
// baselines across the 13 benchmarks.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		global, distributed, _, _, err := exp.Fig10(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		avgG, maxG := exp.LatencyReduction(global, core.TokenChannel, core.GHSSetaside)
		avgD, _ := exp.LatencyReduction(distributed, core.TokenSlot, core.DHSSetaside)
		b.ReportMetric(avgG, "ghs_avg_red_%")
		b.ReportMetric(maxG, "ghs_max_red_%")
		b.ReportMetric(avgD, "dhs_avg_red_%")
	}
}

// BenchmarkIPC — the closed-loop CMP study of §V-B. Metrics: mean IPC gain
// of each handshake scheme over its baseline.
func BenchmarkIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.IPCStudy(core.TokenChannel, core.GHSSetaside, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.MeanIPCGain(rows), "ghs_ipc_gain_%")
		rows, _, err = exp.IPCStudy(core.TokenSlot, core.DHSSetaside, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exp.MeanIPCGain(rows), "dhs_ipc_gain_%")
	}
}

// BenchmarkFig11 — credit-count sensitivity of the handshake schemes
// (Fig 11a-e). Metric: worst-case latency ratio between 4 and 32 credits
// at sub-saturation loads (1.0 = perfectly credit-independent).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		worst := 1.0
		curves, err := exp.Figure("fig11", quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Four credit counts per scheme, in grid order: 4, 8, 16, 32; the
		// metric covers the enhanced schemes.
		for ; len(curves) >= 4; curves = curves[4:] {
			if s := curves[0].Scheme; s != core.GHSSetaside && s != core.DHSSetaside && s != core.DHSCirculation {
				continue
			}
			for j := range curves[0].Loads {
				l4, l32 := curves[0].Latency[j], curves[3].Latency[j]
				if l32 > 0 && l32 < 50 {
					if r := l4 / l32; r > worst {
						worst = r
					}
				}
			}
		}
		b.ReportMetric(worst, "worst_credit_ratio")
	}
}

// BenchmarkFig11f — setaside size study (Fig 11f). Metric: latency with 1
// vs 16 setaside slots at UR 0.11.
func BenchmarkFig11f(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.Fig11f(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == core.DHSSetaside && r.Setaside == 1 {
				b.ReportMetric(r.Latency, "dhs_set1_lat")
			}
			if r.Scheme == core.DHSSetaside && r.Setaside == 16 {
				b.ReportMetric(r.Latency, "dhs_set16_lat")
			}
		}
	}
}

// BenchmarkFig12a — power breakdown per scheme (Fig 12a). Metrics: total
// power of Token Channel (the most expensive) and Token Slot (the
// cheapest full-throughput scheme).
func BenchmarkFig12a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, _, err := exp.Fig12(0.11, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Scheme {
			case core.TokenChannel:
				b.ReportMetric(r.Breakdown.TotalW(), "tokenchannel_W")
			case core.TokenSlot:
				b.ReportMetric(r.Breakdown.TotalW(), "tokenslot_W")
			}
		}
	}
}

// BenchmarkFig12b — energy per packet per scheme (Fig 12b).
func BenchmarkFig12b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, _, err := exp.Fig12(0.11, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Scheme {
			case core.TokenChannel:
				b.ReportMetric(r.EnergyPerPktNJ, "tokenchannel_nJ")
			case core.DHSCirculation:
				b.ReportMetric(r.EnergyPerPktNJ, "dhscir_nJ")
			}
		}
	}
}

// BenchmarkTable1 — the optical component budget (Table I). Metric: GHS's
// micro-ring overhead over Token Slot in percent (the paper's 0.4%).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := exp.Table1()
		b.ReportMetric(100*rows[1].Overhead(rows[0]), "ghs_ring_overhead_%")
		b.ReportMetric(float64(rows[0].MicroRings)/1024, "tokenslot_rings_K")
	}
}

// BenchmarkNetworkStep measures the simulator engine itself: nanoseconds
// per simulated cycle of the full 64-node network under UR load, per
// scheme.
func BenchmarkNetworkStep(b *testing.B) {
	for _, s := range photon.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			cfg := photon.DefaultConfig(s)
			cfg.CheckInvariants = false
			net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 40, Drain: 0})
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
		})
	}
}

// BenchmarkInvariantOverhead quantifies the cost of per-cycle invariant
// checking (on by default in tests, off in production sweeps).
func BenchmarkInvariantOverhead(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := photon.DefaultConfig(photon.TokenSlot)
			cfg.CheckInvariants = on
			net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 40, Drain: 0})
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
		})
	}
}

// BenchmarkScalingRoundTrip is the DESIGN.md ring-size ablation: latency of
// the credit baseline vs the handshake scheme at fixed 8-deep buffers as
// the loop's round trip grows — the paper's large-scale feasibility
// argument. Metric: latency in cycles at UR 0.09.
func BenchmarkScalingRoundTrip(b *testing.B) {
	for _, rt := range []int{8, 16, 32} {
		for _, s := range []photon.Scheme{photon.TokenSlot, photon.DHSSetaside} {
			b.Run(s.String()+"/R"+itoa(rt), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := exp.RunPoint(exp.Point{
						Scheme:  s,
						Pattern: traffic.UniformRandom{},
						Rate:    0.09,
						Mod:     func(c *core.Config) { c.RoundTrip = rt },
					}, quickOpts())
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.AvgLatency, "latency_cycles")
				}
			})
		}
	}
}

// BenchmarkAblationFairness measures the throughput cost of the well-served
// sit-out policy at a saturating load.
func BenchmarkAblationFairness(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exp.RunPoint(exp.Point{
					Scheme:  photon.DHSSetaside,
					Pattern: traffic.UniformRandom{},
					Rate:    0.23,
					Mod:     func(c *core.Config) { c.Fairness.Enabled = on },
				}, quickOpts())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Throughput, "sat_throughput")
				b.ReportMetric(res.FairnessSpread, "spread")
			}
		})
	}
}

// BenchmarkAblationEjectRate exposes the hidden receiver-drain parameter
// behind credit return: Token Slot's saturation vs the home buffer's drain
// rate.
func BenchmarkAblationEjectRate(b *testing.B) {
	for _, rate := range []int{1, 2, 4} {
		b.Run("eject"+itoa(rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exp.RunPoint(exp.Point{
					Scheme:  photon.TokenSlot,
					Pattern: traffic.UniformRandom{},
					Rate:    0.21,
					Mod:     func(c *core.Config) { c.EjectRate = rate },
				}, quickOpts())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Throughput, "throughput")
			}
		})
	}
}

// BenchmarkSWMR runs the SWMR extension study (reservation vs handshake on
// a sender-owned-channel ring). Metrics: latency of each discipline at the
// swept low-load point.
func BenchmarkSWMR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.SWMRStudy([]float64{0.02}, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Scheme {
			case photon.SWMRReservation:
				b.ReportMetric(r.Result.AvgLatency, "reservation_lat")
			case photon.SWMRHandshakeSetaside:
				b.ReportMetric(r.Result.AvgLatency, "handshake_lat")
			}
		}
	}
}

// BenchmarkMultiFlit runs the multi-flit message study (paper fn. 6: each
// flit carries its own header and routes independently).
func BenchmarkMultiFlit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.MultiFlitStudy(photon.DHSSetaside, 0.02, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MsgLatency, "1flit_lat")
		b.ReportMetric(rows[2].MsgLatency, "4flit_lat")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
