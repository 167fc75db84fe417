package traffic

import (
	"math"
	"testing"

	"photon/internal/core"
	"photon/internal/sim"
)

func TestMultiFlitValidation(t *testing.T) {
	ur := UniformRandom{}
	cases := []struct {
		name                       string
		pattern                    Pattern
		rate                       float64
		flits, nodes, coresPerNode int
	}{
		{"zero flits", ur, 0.01, 0, 64, 4},
		{"negative flits", ur, 0.01, -1, 64, 4},
		{"nil pattern", nil, 0.01, 2, 64, 4},
		{"rate > 1", ur, 2, 2, 64, 4},
		{"negative rate", ur, -0.01, 2, 64, 4},
		{"NaN rate", ur, math.NaN(), 2, 64, 4},
		{"one node", ur, 0.01, 2, 1, 4}, // UR has no destination to draw
		{"zero nodes", ur, 0.01, 2, 0, 4},
		{"too many nodes", ur, 0.01, 2, core.MaxNodes + 1, 4},
		{"zero cores per node", ur, 0.01, 2, 64, 0},
		{"negative cores per node", ur, 0.01, 2, 64, -4},
	}
	for _, c := range cases {
		if _, err := NewMultiFlitInjector(c.pattern, c.rate, c.flits, c.nodes, c.coresPerNode, 1); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := NewMultiFlitInjector(ur, 1, 1, 2, 1, 1); err != nil {
		t.Errorf("smallest valid injector rejected: %v", err)
	}
}

func TestMultiFlitReassembly(t *testing.T) {
	cfg := core.DefaultConfig(core.DHSSetaside)
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 200, Measure: 1500, Drain: 1500})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewMultiFlitInjector(UniformRandom{}, 0.01, 4, cfg.Nodes, cfg.CoresPerNode, 5)
	if err != nil {
		t.Fatal(err)
	}
	avgLat, thr := inj.Run(net)
	if inj.MessagesBegun == 0 {
		t.Fatal("no messages injected")
	}
	if n := len(inj.remaining); n != 0 {
		t.Fatalf("%d messages never reassembled", n)
	}
	if inj.MessagesDone != inj.MessagesBegun {
		t.Fatalf("completed %d of %d messages", inj.MessagesDone, inj.MessagesBegun)
	}
	if avgLat <= 0 || thr <= 0 {
		t.Fatalf("latency %.1f throughput %.5f", avgLat, thr)
	}
	// Flit conservation: every flit of every message delivered.
	st := net.Stats()
	if st.Delivered != 4*inj.MessagesBegun {
		t.Fatalf("delivered %d flits, want %d", st.Delivered, 4*inj.MessagesBegun)
	}
}

// TestMultiFlitLatencyGrowsWithSize: a 4-flit message serialises through
// the sender's injection port and channel, so its completion latency must
// exceed a single-flit message's.
func TestMultiFlitLatencyGrowsWithSize(t *testing.T) {
	run := func(flits int) float64 {
		cfg := core.DefaultConfig(core.DHSSetaside)
		net, err := core.NewNetwork(cfg, sim.Window{Warmup: 200, Measure: 1500, Drain: 1500})
		if err != nil {
			t.Fatal(err)
		}
		inj, err := NewMultiFlitInjector(UniformRandom{}, 0.005, flits, cfg.Nodes, cfg.CoresPerNode, 5)
		if err != nil {
			t.Fatal(err)
		}
		lat, _ := inj.Run(net)
		return lat
	}
	l1, l4 := run(1), run(4)
	if l4 <= l1+2 {
		t.Fatalf("4-flit message latency %.1f not clearly above single-flit %.1f", l4, l1)
	}
}
