package core

import (
	"fmt"
	"reflect"
	"testing"

	"photon/internal/arbiter"
	"photon/internal/flow"
	"photon/internal/router"
	"photon/internal/sim"
)

// offsetWalk is the oracle for bindGlobalSweep: the per-offset loop the
// engine ran before the word-at-a-time sweep — one want-bit test per
// offset, the node id stepping downstream and wrapping past the last node.
func offsetWalk(n *Network, c *channel, rc *flow.RelayedCredits) arbiter.SweepFunc {
	nodes := n.cfg.Nodes
	return func(start, end int) int {
		id := (c.home + start) % nodes
		for off := start; off < end; off++ {
			if n.wants(c.home, id) && n.captureGlobal(c, id, rc) {
				return off
			}
			if id++; id == nodes {
				id = 0
			}
		}
		return -1
	}
}

// captureLog records the node id of every token capture.
type captureLog struct{ ids []int }

func (l *captureLog) Observe(e Event) {
	if e.Type == EvTokenCapture {
		id, _ := TokenAux(e.Aux)
		l.ids = append(l.ids, id)
	}
}

// TestGlobalSweepOrderMatchesOffsetWalk is the global-token twin of
// TestSlotScanOrderMatchesRowWalk: at every node count — below, at and past
// one mask word — and for homes on both sides of a word boundary, the
// word-at-a-time sweep and the per-offset walk, run on identically prepared
// networks over the same windows (whole segments, windows whose node ids
// wrap past the last node, and one-offset slivers), return the same
// capturing offset, count the same fairness yields and capture the same
// nodes. A share of the requesters is ineligible — already granted, already
// holding another channel's token, or over its fairness quota — and every
// third window runs with an empty credit token aboard.
func TestGlobalSweepOrderMatchesOffsetWalk(t *testing.T) {
	for _, nodes := range []int{2, 16, 63, 64, 65, 128, 200, 256} {
		homes := map[int]bool{}
		for _, home := range []int{0, 63, 64, nodes - 1} {
			if home >= nodes || homes[home] {
				continue
			}
			homes[home] = true
			// Want-set densities: one in eight, half, and every node.
			for _, keep := range []uint64{1, 4, 8} {
				t.Run(fmt.Sprintf("n%d/home%d/keep%d", nodes, home, keep), func(t *testing.T) {
					checkGlobalSweepOrder(t, nodes, home, keep)
				})
			}
		}
	}
}

// sweepNet builds a GHS ring whose channel home has a requester set drawn
// from seed: each other node wants the channel with probability keep/8,
// and a wanting node is made ineligible one time in eight each by a
// pending grant, a held token of another channel, or an exhausted quota.
func sweepNet(t *testing.T, nodes, home int, keep, seed uint64) (*Network, *channel, *captureLog) {
	t.Helper()
	cfg := DefaultConfig(GHS)
	cfg.Nodes, cfg.RoundTrip, cfg.CoresPerNode = nodes, nodes, 1
	// A short window with a floor of one capture: two captures put any
	// node over its allowance once two or more nodes contend.
	cfg.Fairness = arbiter.FairnessConfig{Enabled: true, Window: 4, Quota: 1}
	n, err := NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &n.chans[home]
	rng := sim.NewRNG(seed)
	for id := 0; id < nodes; id++ {
		if id == home || rng.Uint64()%8 >= keep {
			continue
		}
		pkt := router.NewPacket(uint64(id), id, home, 0)
		nd, q := n.queueOf(pkt)
		if !q.out.Enqueue(pkt) {
			t.Fatalf("node %d refused its packet", id)
		}
		n.updateQueueWant(nd, q)
		switch rng.Uint64() % 8 {
		case 0:
			nd.granted = true
		case 1:
			nd.holding = (home + 1) % nodes
		case 2:
			c.fair.OnCapture(id)
			c.fair.OnCapture(id)
		}
	}
	log := &captureLog{}
	n.SetTracer(log)
	return n, c, log
}

// sweepWindows lists the (start, end) offset windows a free token sweeps
// at light speed per nodes per cycle, laps times round the loop, split at
// the home crossing exactly as arbiter.GlobalToken.AdvanceSweep splits it.
func sweepWindows(nodes, per, laps int) [][2]int {
	var out [][2]int
	pos := 0
	for step := 0; step < laps*nodes/per+1; step++ {
		start, end := pos+1, pos+per+1
		if end <= nodes {
			out = append(out, [2]int{start, end})
		} else {
			if start < nodes {
				out = append(out, [2]int{start, nodes})
			}
			if rest := end - nodes; rest > 1 {
				out = append(out, [2]int{1, rest})
			}
		}
		pos = (pos + per) % nodes
	}
	return out
}

func checkGlobalSweepOrder(t *testing.T, nodes, home int, keep uint64) {
	seed := uint64(nodes*1000+home)*8 + keep
	got, gc, glog := sweepNet(t, nodes, home, keep, seed)
	want, wc, wlog := sweepNet(t, nodes, home, keep, seed)
	empty := flow.NewRelayedCredits(1)
	empty.Spend() // a token with no credits aboard vetoes every capture
	sweeps := [2]arbiter.SweepFunc{bindGlobalSweep(got, gc, nil), bindGlobalSweep(got, gc, empty)}
	walks := [2]arbiter.SweepFunc{offsetWalk(want, wc, nil), offsetWalk(want, wc, empty)}

	var windows [][2]int
	for _, per := range []int{nodes, max(1, nodes/8), 3, 1} {
		windows = append(windows, sweepWindows(nodes, per, 2)...)
	}
	for i, w := range windows {
		k := 0
		if i%3 == 2 {
			k = 1 // every third window sweeps the empty credit token
		}
		g, o := sweeps[k](w[0], w[1]), walks[k](w[0], w[1])
		if g != o {
			t.Fatalf("window %d %v: sweep returned offset %d, offset walk %d", i, w, g, o)
		}
		if g, o := gc.fair.Yields(), wc.fair.Yields(); g != o {
			t.Fatalf("window %d %v: sweep counted %d fairness yields, offset walk %d", i, w, g, o)
		}
		if i%16 == 15 {
			// Release every holder of this channel, so later windows find
			// captures again instead of an exhausted requester set.
			for _, m := range []*Network{got, want} {
				for id := range m.nodes {
					if m.nodes[id].holding == home {
						m.nodes[id].holding = -1
					}
				}
			}
		}
	}
	if !reflect.DeepEqual(glog.ids, wlog.ids) {
		t.Errorf("sweep captured nodes\n%v\noffset walk captured\n%v", glog.ids, wlog.ids)
	}
	if keep == 8 && nodes >= 16 && (len(wlog.ids) == 0 || wc.fair.Yields() == 0) {
		t.Errorf("%d captures and %d yields in %d windows: the test exercises nothing",
			len(wlog.ids), wc.fair.Yields(), len(windows))
	}
}
