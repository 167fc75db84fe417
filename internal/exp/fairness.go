package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/stats"
)

// FairnessStudy quantifies §III-D: with setaside buffers removing the
// natural HOL throttling, senders near the home node can starve
// downstream senders; the fairness quota redistributes
// service. Every node saturates one hot destination and the study reports
// each ring-quadrant's share of delivered packets with the policy off and
// on, plus the count of fully starved sources.
func FairnessStudy(scheme core.Scheme, opts Options) (*stats.Table, error) {
	if !scheme.Handshake() && !scheme.Circulating() {
		return nil, fmt.Errorf("exp: fairness study targets the handshake schemes, not %v", scheme)
	}
	run := func(enabled bool) ([]int64, int, error) {
		cfg := core.DefaultConfig(scheme)
		cfg.Seed = opts.Seed
		cfg.Fairness.Enabled = enabled
		// Fairness-first setting: the quota floor drops to the egalitarian
		// share of a fully contended channel, trading a little saturation
		// throughput for zero starvation (the default floor of 16 is
		// throughput-first; BenchmarkAblationFairness quantifies the
		// tradeoff).
		cfg.Fairness.Quota = 4
		net, err := core.NewNetwork(cfg, opts.Window)
		if err != nil {
			return nil, 0, err
		}
		// Count deliveries by source as they happen after warmup — at a
		// saturating load, injection-window accounting would only see the
		// backlog, not the steady-state service distribution.
		shares := make([]int64, cfg.Nodes)
		w := net.Window()
		net.OnDeliver = func(p *router.Packet) {
			if net.Now() >= w.Warmup {
				shares[p.Src]++
			}
		}
		hot := 0
		for cyc := int64(0); cyc < w.Warmup+w.Measure; cyc++ {
			// Every non-home node offers 0.05 pkt/cycle at the hot home —
			// each sender's demand exceeds the fairness allowance, and the
			// aggregate (~3.2x capacity) makes unpoliced service collapse
			// onto the nodes nearest the home.
			for nd := 1; nd < cfg.Nodes; nd++ {
				if (cyc+int64(nd))%20 == 0 {
					net.Inject(nd*cfg.CoresPerNode, hot, router.ClassData, 0)
				}
			}
			net.Step()
		}
		starved := 0
		for nd := 1; nd < cfg.Nodes; nd++ {
			if shares[nd] == 0 {
				starved++
			}
		}
		return shares, starved, nil
	}

	offShares, offStarved, err := run(false)
	if err != nil {
		return nil, err
	}
	onShares, onStarved, err := run(true)
	if err != nil {
		return nil, err
	}

	nodes := len(offShares)
	quarter := nodes / 4
	bucket := func(shares []int64, lo, hi int) float64 {
		var part, total int64
		for i := 1; i < nodes; i++ {
			if i >= lo && i < hi {
				part += shares[i]
			}
			total += shares[i]
		}
		if total == 0 {
			return 0
		}
		return float64(part) / float64(total)
	}

	t := stats.NewTable(
		fmt.Sprintf("Fairness (§III-D): share of service by ring position, %s, hot-home saturation", scheme.PaperName()),
		"downstream offset", "share (policy off)", "share (policy on)")
	for q := 0; q < 4; q++ {
		lo, hi := q*quarter, (q+1)*quarter
		if q == 0 {
			lo = 1
		}
		t.AddRow(fmt.Sprintf("%d..%d", lo, hi-1),
			fmt.Sprintf("%.3f", bucket(offShares, lo, hi)), fmt.Sprintf("%.3f", bucket(onShares, lo, hi)))
	}
	t.AddRow("starved sources", fmt.Sprintf("%d", offStarved), fmt.Sprintf("%d", onStarved))
	return t, nil
}
