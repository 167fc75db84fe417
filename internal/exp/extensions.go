package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/swmr"
	"photon/internal/traffic"
)

// SWMRStudy evaluates the paper's SWMR extension direction: the
// reservation baseline against the handshake disciplines over a load
// sweep. Loads are messages/cycle/core under uniform random traffic.
func SWMRStudy(opts Options) (*stats.Table, error) {
	loads := []float64{0.005, 0.01, 0.02, 0.05, 0.08, 0.11}
	if opts.Quick {
		loads = []float64{0.01, 0.02, 0.05}
	}
	t := stats.NewTable("SWMR extension: latency (cycles) by flow-control discipline, UR",
		"load", "Reservation", "Handshake", "Handshake w/ Setaside")
	for _, load := range loads {
		row := []any{fmt.Sprintf("%.3f", load)}
		for _, s := range swmr.Schemes() {
			cfg := swmr.DefaultConfig(s)
			cfg.Seed = opts.Seed
			net, err := swmr.NewNetwork(cfg, opts.Window)
			if err != nil {
				return nil, err
			}
			res, err := runSWMR(net, load, opts.Seed+55)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", res.AvgLatency))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runSWMR drives an SWMR network with Bernoulli UR traffic.
func runSWMR(net *swmr.Network, rate float64, seed uint64) (swmr.Result, error) {
	cfg := net.Config()
	rng := sim.NewRNG(seed)
	pat := traffic.UniformRandom{}
	w := net.Window()
	for cyc := int64(0); cyc < w.Warmup+w.Measure; cyc++ {
		for c := 0; c < cfg.Cores(); c++ {
			if rng.Bernoulli(rate) {
				net.Inject(c, pat.Dest(c/cfg.CoresPerNode, cfg.Nodes, rng), router.ClassData, 0)
			}
		}
		net.Step()
	}
	net.Drain(w.Drain + 100_000)
	return net.Result(), nil
}

// ScalingStudy quantifies the paper's large-scale argument: with the
// buffer depth held at 8, credit-based flow control collapses as the
// loop's round trip grows while the handshake schemes degrade only with
// the flight time. Load is UR at 0.09 packets/cycle/core.
func ScalingStudy(opts Options) (*stats.Table, error) {
	schemes := []core.Scheme{core.TokenSlot, core.TokenChannel, core.DHSSetaside, core.GHSSetaside}
	rts := []int{4, 8, 16, 32}
	var points []Point
	for _, rt := range rts {
		for _, s := range schemes {
			rt := rt
			points = append(points, Point{
				Scheme:  s,
				Pattern: traffic.UniformRandom{},
				Rate:    0.09,
				Mod:     func(c *core.Config) { c.RoundTrip = rt },
			})
		}
	}
	results, err := RunPoints(points, opts)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ring-size scaling: latency (cycles) at UR 0.09 with 8-deep buffers",
		"round trip", "Token Slot", "Token Channel", "DHS w/ Setaside", "GHS w/ Setaside")
	for i, rt := range rts {
		row := []any{fmt.Sprintf("%d", rt)}
		for _, r := range results[i*len(schemes) : (i+1)*len(schemes)] {
			row = append(row, fmt.Sprintf("%.1f", r.AvgLatency))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// MultiFlitStudy measures message-completion latency under DHS w/
// Setaside as packets span multiple independently-routed flits (the
// paper's fn. 6 design).
func MultiFlitStudy(rate float64, opts Options) (*stats.Table, error) {
	const scheme = core.DHSSetaside
	t := stats.NewTable(fmt.Sprintf("Multi-flit messages (%s, UR %.3f msg/cycle/core)", scheme.PaperName(), rate),
		"flits/message", "message latency", "messages/cycle/core")
	for _, flits := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig(scheme)
		cfg.Seed = opts.Seed
		net, err := core.NewNetwork(cfg, opts.Window)
		if err != nil {
			return nil, err
		}
		inj, err := traffic.NewMultiFlitInjector(traffic.UniformRandom{}, rate, flits, cfg.Nodes, cfg.CoresPerNode, opts.Seed+7)
		if err != nil {
			return nil, err
		}
		lat, thr := inj.Run(net)
		t.AddRow(fmt.Sprintf("%d", flits), fmt.Sprintf("%.1f", lat), fmt.Sprintf("%.4f", thr))
	}
	return t, nil
}
