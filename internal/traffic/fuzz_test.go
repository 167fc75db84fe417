package traffic_test

import (
	"testing"

	"photon/internal/traffic"
)

// FuzzNewInjector hammers the injector constructor with arbitrary
// geometry/rate/pattern combinations. The contract: NewInjector either
// returns an error or an injector whose first cycles draw only in-range
// destinations — it must never panic and never address a node outside
// [0, nodes).
func FuzzNewInjector(f *testing.F) {
	f.Add(0.10, 64, 4, 0, 3, 0.2, uint64(1))
	f.Add(0.0, 1, 1, 1, 0, 0.0, uint64(0))
	f.Add(1.0, 2, 1, 4, 1, 1.0, uint64(9))
	f.Add(-0.5, 64, 4, 2, 0, 0.2, uint64(1))
	f.Add(0.10, -3, 200000, 3, -7, -0.9, uint64(5))
	nan := 0.0
	nan /= nan
	f.Add(nan, 64, 4, 0, 3, nan, uint64(1))

	f.Fuzz(func(t *testing.T, rate float64, nodes, cores, patIdx, hot int, frac float64, seed uint64) {
		patterns := []traffic.Pattern{
			traffic.UniformRandom{},
			traffic.BitComplement{},
			traffic.Tornado{},
			traffic.Transpose{},
			traffic.Neighbor{},
			traffic.Hotspot{Hot: hot, Fraction: frac},
		}
		if patIdx < 0 {
			patIdx = -patIdx
		}
		pat := patterns[patIdx%len(patterns)]
		if _, err := traffic.NewInjector(pat, rate, nodes, cores, seed); err != nil {
			return // rejected up front — the fail-fast contract is met
		}
		if nodes*cores > 1<<16 {
			t.Skip("valid but too large to draw from under fuzzing")
		}
		// Hotspot with an out-of-range hot node may only be rejected by the
		// destination check below, so clamp nothing: draw and verify.
		bad := -1
		tape, err := traffic.RecordTape(pat, rate, nodes, cores, seed, 16)
		if err != nil {
			t.Fatalf("constructor accepted (%g,%d,%d) but RecordTape rejected it: %v", rate, nodes, cores, err)
		}
		for _, e := range tape.Entries {
			if e.Dst < 0 || e.Dst >= nodes {
				bad = e.Dst
			}
			if e.Core < 0 || e.Core >= nodes*cores {
				t.Fatalf("tape drew core %d outside [0,%d)", e.Core, nodes*cores)
			}
		}
		if bad >= 0 {
			// Hotspot is the only pattern that can aim outside the ring;
			// every built-in must stay in range.
			if _, isHS := pat.(traffic.Hotspot); !isHS {
				t.Fatalf("pattern %s drew destination %d outside [0,%d)", pat.Name(), bad, nodes)
			}
		}
	})
}
