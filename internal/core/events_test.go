package core_test

import (
	"testing"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// TestEventSequenceCleanDelivery: a single un-contended DHS packet emits
// exactly inject -> enqueue -> launch -> accept -> ack, deliver — in order.
func TestEventSequenceCleanDelivery(t *testing.T) {
	cfg := core.DefaultConfig(core.DHS)
	cfg.Fairness.Enabled = false
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	var seq []core.EventType
	net.SetTracer(core.CanonicalFunc(func(e core.Event) { seq = append(seq, e.Type) }))
	net.RunCycles(int64(cfg.RoundTrip))
	net.Inject(4, 9, router.ClassData, 0)
	net.RunCycles(40)

	want := []core.EventType{core.EvInject, core.EvEnqueue, core.EvLaunch, core.EvAccept, core.EvDeliver, core.EvAck}
	// Deliver and Ack can appear in either order (ejection is phase 3,
	// handshake delivery phase 2 of a later cycle); compare as a multiset
	// with ordered prefix.
	if len(seq) != len(want) {
		t.Fatalf("event sequence %v, want %d events", seq, len(want))
	}
	if seq[0] != core.EvInject || seq[1] != core.EvEnqueue || seq[2] != core.EvLaunch || seq[3] != core.EvAccept {
		t.Fatalf("prefix wrong: %v", seq)
	}
	rest := map[core.EventType]int{}
	for _, e := range seq[4:] {
		rest[e]++
	}
	if rest[core.EvDeliver] != 1 || rest[core.EvAck] != 1 {
		t.Fatalf("tail wrong: %v", seq)
	}
}

// TestEventSequenceDropRetransmit: with a clogged receiver, the observer
// sees drop -> nack -> (re)launch and eventually accept+deliver.
func TestEventSequenceDropRetransmit(t *testing.T) {
	cfg := core.DefaultConfig(core.DHSSetaside)
	cfg.BufferDepth = 1
	cfg.EjectStallProb = 0.8
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[core.EventType]int{}
	net.SetTracer(core.CanonicalFunc(func(e core.Event) { counts[e.Type]++ }))
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.08, cfg.Nodes, cfg.CoresPerNode, 7)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 2000; cyc++ {
		inj.Tick(net)
		net.Step()
	}
	net.Drain(60_000)
	if counts[core.EvDrop] == 0 || counts[core.EvNack] == 0 {
		t.Fatalf("no drops/nacks observed: %v", counts)
	}
	if counts[core.EvDrop] != counts[core.EvNack] {
		t.Fatalf("drops %d != nacks %d", counts[core.EvDrop], counts[core.EvNack])
	}
	if counts[core.EvLaunch] != counts[core.EvAccept]+counts[core.EvDrop] {
		t.Fatalf("launches %d != accepts %d + drops %d",
			counts[core.EvLaunch], counts[core.EvAccept], counts[core.EvDrop])
	}
	st := net.Stats()
	if int64(counts[core.EvDeliver]) != st.Delivered {
		t.Fatalf("deliver events %d != stats %d", counts[core.EvDeliver], st.Delivered)
	}
}

// TestEventReinjectCirculation: circulation emits reinject events, never
// drop/nack.
func TestEventReinjectCirculation(t *testing.T) {
	cfg := core.DefaultConfig(core.DHSCirculation)
	cfg.BufferDepth = 1
	cfg.EjectStallProb = 0.8
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[core.EventType]int{}
	net.SetTracer(core.CanonicalFunc(func(e core.Event) { counts[e.Type]++ }))
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.08, cfg.Nodes, cfg.CoresPerNode, 7)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 2000; cyc++ {
		inj.Tick(net)
		net.Step()
	}
	net.Drain(60_000)
	if counts[core.EvReinject] == 0 {
		t.Fatal("no reinjections observed under a clogged receiver")
	}
	if counts[core.EvDrop] != 0 || counts[core.EvNack] != 0 || counts[core.EvAck] != 0 {
		t.Fatalf("circulation produced handshake events: %v", counts)
	}
}

func TestEventTypeStrings(t *testing.T) {
	for e := core.EvEnqueue; e <= core.EvRetire; e++ {
		if e.String() == "event?" {
			t.Fatalf("event %d lacks a label", int(e))
		}
	}
	if core.EventType(99).String() != "event?" {
		t.Fatal("unknown event label wrong")
	}
}
