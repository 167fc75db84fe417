// Customtraffic: define a workload-specific traffic pattern against the
// public Pattern interface — a "shuffle" permutation modelling an FFT
// butterfly exchange — and sweep it, beside the built-in hotspot pattern,
// across all seven schemes to find the saturation point of each.
//
// This is the extension path a downstream user takes when their workload
// is not one of the built-in patterns.
package main

import (
	"fmt"
	"log"

	"photon"
)

// Shuffle implements the perfect-shuffle permutation: the destination is
// the source's node id rotated left by one bit — the classic butterfly
// exchange step of FFT-style kernels. It satisfies photon.Pattern.
type Shuffle struct {
	Bits int // log2 of the node count
}

// Name implements photon.Pattern.
func (s Shuffle) Name() string { return "SHUFFLE" }

// Dest implements photon.Pattern.
func (s Shuffle) Dest(src, nodes int, _ *photon.RNG) int {
	hi := (src >> (s.Bits - 1)) & 1
	return ((src << 1) | hi) & (nodes - 1)
}

func main() {
	const bits = 6 // 64 nodes
	// The permutation spreads load evenly; the hotspot, a contended
	// directory that draws 5% of all traffic to node 0, saturates at
	// that node's ejection port instead.
	patterns := []photon.Pattern{Shuffle{Bits: bits}, photon.Hotspot{Hot: 0, Fraction: 0.05}}

	for i, pattern := range patterns {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("saturation load of %s (latency <= 3x zero-load):\n", pattern.Name())
		for _, scheme := range photon.Schemes() {
			sat, zero := saturate(scheme, pattern)
			fmt.Printf("  %-20s zero-load %5.1f cycles   saturates near %.2f pkt/cycle/core\n",
				scheme.PaperName(), zero, sat)
		}
	}
}

// saturate walks the load axis until average latency exceeds 3x the
// zero-load latency and reports the last stable load.
func saturate(scheme photon.Scheme, pattern photon.Pattern) (satLoad, zeroLat float64) {
	run := func(rate float64) photon.Result {
		cfg := photon.DefaultConfig(scheme)
		net, err := photon.NewNetwork(cfg, photon.ShortWindow())
		if err != nil {
			log.Fatal(err)
		}
		inj, err := photon.NewInjector(pattern, rate, cfg.Nodes, cfg.CoresPerNode, 7)
		if err != nil {
			log.Fatal(err)
		}
		return inj.Run(net)
	}
	zeroLat = run(0.005).AvgLatency
	satLoad = 0.005
	for rate := 0.02; rate <= 0.26; rate += 0.02 {
		if run(rate).AvgLatency > 3*zeroLat {
			break
		}
		satLoad = rate
	}
	return satLoad, zeroLat
}
