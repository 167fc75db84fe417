package swmr

import (
	"math"
	"testing"

	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// drive runs an SWMR network under UR traffic at the given rate.
func drive(t testing.TB, scheme Scheme, rate float64, mod func(*Config)) (Result, *Network) {
	t.Helper()
	cfg := DefaultConfig(scheme)
	if mod != nil {
		mod(&cfg)
	}
	net, err := NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(77)
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
	net.Drain(w.Drain + 50_000)
	return net.Result(), net
}

func TestConfigValidation(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Nodes = 1 },
		func(c *Config) { c.Nodes = maxNodes * 2 },
		func(c *Config) { c.CoresPerNode = 0 },
		func(c *Config) { c.CoresPerNode = maxCoresPerNode + 1 },
		func(c *Config) { c.RoundTrip = 7 },
		func(c *Config) { c.Scheme = Scheme(9) },
		func(c *Config) { c.BufferDepth = 0 },
		func(c *Config) { c.BufferDepth = maxDepth + 1 },
		func(c *Config) { c.RxPorts = 0 },
		func(c *Config) { c.RxPorts = maxDepth + 1 },
		func(c *Config) { c.SetasideSize = maxDepth + 1 },
		func(c *Config) { c.EjectRate = 0 },
		func(c *Config) { c.EjectStallProb = 1 },
		func(c *Config) { c.EjectStallProb = math.NaN() },
	}
	for i, mod := range mods {
		cfg := DefaultConfig(Handshake)
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := DefaultConfig(HandshakeSetaside)
	cfg.SetasideSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("setaside without slots accepted")
	}
}

// TestAllSchemesDeliver: every discipline completes a light-load run with
// full delivery and plausible latency.
func TestAllSchemesDeliver(t *testing.T) {
	for _, s := range Schemes() {
		res, _ := drive(t, s, 0.02, nil)
		if res.Delivered == 0 {
			t.Fatalf("%v: nothing delivered", s)
		}
		if res.Unfinished != 0 {
			t.Fatalf("%v: %d unfinished", s, res.Unfinished)
		}
		if res.AvgLatency < 4 || res.AvgLatency > 60 {
			t.Fatalf("%v: implausible latency %.1f", s, res.AvgLatency)
		}
	}
}

// TestHandshakeBeatsReservationLatency: the paper's argument transplanted —
// at low load the reservation round trip costs a full loop per packet,
// while handshake sends immediately.
func TestHandshakeBeatsReservationLatency(t *testing.T) {
	res, _ := drive(t, Reservation, 0.02, nil)
	hs, _ := drive(t, HandshakeSetaside, 0.02, nil)
	if hs.AvgLatency >= res.AvgLatency {
		t.Fatalf("handshake %.1f not below reservation %.1f at low load", hs.AvgLatency, res.AvgLatency)
	}
	// The gap must be about the notification round trip.
	if res.AvgLatency-hs.AvgLatency < 4 {
		t.Fatalf("reservation overhead only %.1f cycles", res.AvgLatency-hs.AvgLatency)
	}
	if res.AvgReservation <= 0 {
		t.Fatal("reservation scheme recorded no request-grant waits")
	}
}

// TestReservationInvariants steps a loaded reservation network and checks
// the conservation invariant every cycle.
func TestReservationInvariants(t *testing.T) {
	cfg := DefaultConfig(Reservation)
	cfg.EjectStallProb = 0.3
	cfg.BufferDepth = 3
	net, err := NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(31)
	pat := traffic.UniformRandom{}
	for cyc := 0; cyc < 2000; cyc++ {
		for c := 0; c < cfg.Cores(); c++ {
			if rng.Bernoulli(0.05) {
				net.Inject(c, pat.Dest(c/cfg.CoresPerNode, cfg.Nodes, rng), router.ClassData, 0)
			}
		}
		net.Step()
		net.CheckInvariants()
	}
}

// TestReservationNeverDrops: reservations guarantee a buffer slot and an
// rx port, so the receiver must never see an unacceptable arrival.
func TestReservationNeverDrops(t *testing.T) {
	res, net := drive(t, Reservation, 0.10, func(c *Config) { c.EjectStallProb = 0.3 })
	if res.DropRate != 0 || net.Stats().Drops != 0 {
		t.Fatalf("reservation dropped packets: %+v", res)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished", res.Unfinished)
	}
}

// TestHandshakeRecovers: NACKed SWMR packets must all be retransmitted to
// delivery, including port-contention drops.
func TestHandshakeRecovers(t *testing.T) {
	res, net := drive(t, HandshakeSetaside, 0.12, func(c *Config) {
		c.RxPorts = 1
		c.BufferDepth = 2
		c.EjectStallProb = 0.4
	})
	st := net.Stats()
	if st.Drops == 0 {
		t.Fatal("no drops under rx-port pressure")
	}
	if st.PortDrops == 0 {
		t.Fatal("no port-contention drops — the SWMR-specific NACK cause untested")
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished after drain", res.Unfinished)
	}
	if st.Delivered != st.Injected {
		t.Fatalf("delivered %d of %d", st.Delivered, st.Injected)
	}
}

// TestSenderNeverArbitrates: SWMR's structural win — at low load the
// sender-side wait (ready -> launch) is zero for handshake schemes: the
// sender owns its channel.
func TestSenderNeverArbitrates(t *testing.T) {
	cfg := DefaultConfig(HandshakeSetaside)
	net, err := NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	net.RunCycles(10)
	pkt := deliveryOf(net, net.Inject(4, 9, router.ClassData, 0), 40)
	if pkt == nil {
		t.Fatal("never delivered")
	}
	if wait := pkt.ArbitrationWait(); wait != 0 {
		t.Fatalf("sender waited %d cycles on its own channel", wait)
	}
}

// TestRxPortContentionThrottles: with a single rx port, a 2-senders-1-
// receiver clash must produce NACKs for the loser and still deliver all.
func TestRxPortContentionThrottles(t *testing.T) {
	cfg := DefaultConfig(HandshakeSetaside)
	cfg.RxPorts = 1
	net, err := NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 8 and 16 are equidistant choices; pick sources whose flights
	// to node 0 collide in the same cycle: src 8 (flight seg(56)=7) and
	// src 16 (flight seg(48)=6) launched one cycle apart would collide;
	// simplest: saturate both senders and let the port fight happen.
	for cyc := 0; cyc < 300; cyc++ {
		net.Inject(8*cfg.CoresPerNode, 0, router.ClassData, 0)
		net.Inject(16*cfg.CoresPerNode, 0, router.ClassData, 0)
		net.Step()
	}
	net.Drain(20_000)
	st := net.Stats()
	if st.PortDrops == 0 {
		t.Fatal("no port drops in a forced 2:1 clash")
	}
	if st.Delivered != st.Injected {
		t.Fatalf("delivered %d of %d", st.Delivered, st.Injected)
	}
}

// TestDeterminism: SWMR runs are reproducible.
func TestDeterminism(t *testing.T) {
	for _, s := range Schemes() {
		a, _ := drive(t, s, 0.05, func(c *Config) { c.EjectStallProb = 0.2 })
		b, _ := drive(t, s, 0.05, func(c *Config) { c.EjectStallProb = 0.2 })
		if a != b {
			t.Fatalf("%v: runs diverged", s)
		}
	}
}

// TestLocalBypass: node-local traffic never uses the optics.
func TestLocalBypass(t *testing.T) {
	cfg := DefaultConfig(Handshake)
	net, err := NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	pkt := deliveryOf(net, net.Inject(12, 3, router.ClassData, 0), 10)
	if pkt == nil {
		t.Fatal("never delivered")
	}
	if pkt.Latency() != routerPipeline+ejectLatency {
		t.Fatalf("local latency %d", pkt.Latency())
	}
	if net.Stats().Launches != 0 {
		t.Fatal("local packet launched optically")
	}
}

// deliveryOf steps net up to limit cycles until packet id is delivered and
// returns the delivered packet, read through OnDeliver, or nil.
func deliveryOf(net *Network, id uint64, limit int) *router.Packet {
	var got *router.Packet
	net.OnDeliver = func(p *router.Packet) {
		if p.ID == id {
			got = p
		}
	}
	for i := 0; i < limit && got == nil; i++ {
		net.Step()
	}
	return got
}
