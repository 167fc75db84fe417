package core

import (
	"fmt"
	"testing"

	"photon/internal/router"
	"photon/internal/sim"
)

// checkWantSet recomputes the requester set from the queues' want fields
// and requires wantMask and wantNodes to equal it.
func checkWantSet(n *Network) error {
	mask := make([]uint64, len(n.wantMask))
	count := make([]int32, len(n.wantNodes))
	for qi := range n.queues {
		h, id := n.queues[qi].want, qi/n.cfg.CoresPerNode
		if h < 0 || mask[h*n.wantWords+id>>6]>>uint(id&63)&1 != 0 {
			continue
		}
		mask[h*n.wantWords+id>>6] |= 1 << uint(id&63)
		count[h]++
	}
	for h := range count {
		if count[h] != n.wantNodes[h] {
			return fmt.Errorf("cycle %d: wantNodes[%d] = %d, queues say %d", n.now, h, n.wantNodes[h], count[h])
		}
		for w := 0; w < n.wantWords; w++ {
			if i := h*n.wantWords + w; mask[i] != n.wantMask[i] {
				return fmt.Errorf("cycle %d: wantMask row %d word %d = %#x, queues say %#x", n.now, h, w, n.wantMask[i], mask[i])
			}
		}
	}
	return nil
}

// TestWantSetMatchesQueues: the requester set has one writer and no stored
// count behind it, so its consistency with the queues is a property to
// test, not an invariant to panic on. Hot-spot traffic into one-slot,
// mostly stalled receivers makes the handshake schemes NACK and every
// scheme queue several same-destination heads per node — the case where a
// queue stops wanting a channel its sibling still wants.
func TestWantSetMatchesQueues(t *testing.T) {
	for _, s := range Schemes() {
		for _, nodes := range []int{64, 128} {
			for _, cores := range []int{1, 4} {
				cfg := DefaultConfig(s)
				cfg.Nodes, cfg.CoresPerNode = nodes, cores
				cfg.BufferDepth, cfg.EjectStallProb = 1, 0.8
				n, err := NewNetwork(cfg, sim.Window{Measure: 1 << 40})
				if err != nil {
					t.Fatal(err)
				}
				rng := sim.NewRNG(17)
				shared := false
				for cyc := 0; cyc < 1500; cyc++ {
					for c := 0; c < cfg.Cores(); c++ {
						if rng.Uint64()%16 == 0 {
							// Eight hot homes, spread over both mask words
							// of the wider ring.
							n.Inject(c, int(rng.Uint64()%8)*(nodes/8), router.ClassData, 0)
						}
					}
					n.Step()
					if cyc%7 != 0 {
						continue
					}
					if err := checkWantSet(n); err != nil {
						t.Fatalf("%v nodes %d cores %d: %v", s, nodes, cores, err)
					}
					for id := 0; id < nodes && !shared && cores > 1; id++ {
						qs := n.nodeQueues(id)
						shared = qs[0].want >= 0 && qs[0].want == qs[1].want
					}
				}
				if cores > 1 && !shared {
					t.Errorf("%v nodes %d: no two sibling queues ever wanted one channel; the sibling leg is vacuous", s, nodes)
				}
				if s.Handshake() && n.stats.Drops == 0 {
					t.Errorf("%v nodes %d cores %d: no NACK fired", s, nodes, cores)
				}
			}
		}
	}
}
