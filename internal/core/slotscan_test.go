package core

import (
	"fmt"
	"reflect"
	"testing"

	"photon/internal/router"
	"photon/internal/sim"
)

// probe is one slotProbe call: the requesting node and its downstream
// offset from the channel's home.
type probe struct{ id, off int }

// rowWalk is the oracle for slotScan's probe order: the linear downstream
// walk of a channel's want row (row[id] = node id requests the channel)
// the engine used before the bitset walk.
func rowWalk(row []bool, home int) []probe {
	nodes := len(row)
	var out []probe
	id := home + 1
	if id >= nodes {
		id -= nodes
	}
	for off := 1; off < nodes; off++ {
		if row[id] {
			out = append(out, probe{id, off})
		}
		if id++; id == nodes {
			id = 0
		}
	}
	return out
}

// probeRecorder reconstructs slotScan's (id, offset) sequence from the
// outside. The ring is configured with one node per token segment and a
// live token at every age, so every probe captures: the capture event
// names the node, and the one token that died since the previous event is
// the offset the previous probe used.
type probeRecorder struct {
	c    *channel
	now  int64
	live []bool // live[age] as of the last event
	got  []probe
}

func (r *probeRecorder) Observe(e Event) {
	if e.Type != EvTokenCapture {
		return
	}
	r.settle()
	id, _ := TokenAux(e.Aux)
	r.got = append(r.got, probe{id: id, off: -1})
}

// settle attributes the token consumed since the last event to the last
// recorded probe.
func (r *probeRecorder) settle() {
	for age := 1; age < len(r.live); age++ {
		if r.live[age] && !r.c.slot.LiveAt(r.now, age) {
			r.live[age] = false
			r.got[len(r.got)-1].off = age
		}
	}
}

// TestSlotScanOrderMatchesRowWalk: at every node count — below, at and
// past one mask word — and for homes on both sides of a word boundary,
// the bitset walk probes exactly the (id, offset) sequence of the linear
// want-row walk.
func TestSlotScanOrderMatchesRowWalk(t *testing.T) {
	rng := sim.NewRNG(16)
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
					checkSlotScanOrder(t, nodes, home, func() bool { return rng.Uint64()%8 < keep })
				})
			}
		}
	}
}

func checkSlotScanOrder(t *testing.T, nodes, home int, wants func() bool) {
	cfg := DefaultConfig(DHS)
	cfg.Nodes, cfg.RoundTrip, cfg.CoresPerNode = nodes, nodes, 1
	n, err := NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &n.chans[home]
	// One token per cycle for a full loop: ages 1..nodes are all live.
	now := int64(1)
	for ; now <= int64(nodes); now++ {
		c.slot.BeginCycle(now, nil)
		c.slot.Emit(now, nil)
	}
	c.slot.BeginCycle(now, nil)

	// Requests go through the engine's own bookkeeping; row is the oracle's
	// independent record of who asked.
	row := make([]bool, nodes)
	for id := 0; id < nodes; id++ {
		if id == home || !wants() {
			continue
		}
		pkt := router.NewPacket(uint64(id), id, home, 0)
		nd, q := n.queueOf(pkt)
		if !q.out.Enqueue(pkt) {
			t.Fatalf("node %d refused its packet", id)
		}
		n.updateQueueWant(nd, q)
		row[id] = true
	}

	rec := &probeRecorder{c: c, now: now, live: make([]bool, nodes+1)}
	for age := 1; age <= nodes; age++ {
		rec.live[age] = c.slot.LiveAt(now, age)
	}
	n.SetTracer(rec)
	n.slotScan(c, now, nil)
	if len(rec.got) > 0 {
		rec.settle()
	}

	want := rowWalk(row, home)
	if !reflect.DeepEqual(rec.got, want) {
		t.Errorf("nodes %d home %d: bitset walk probed\n%v\nrow walk probes\n%v", nodes, home, rec.got, want)
	}
}
