package swmr

import "testing"

// TestHandshakeBufferIndependence mirrors Figure 11's property on the SWMR
// extension: the handshake disciplines' latency barely moves with the
// receiver buffer depth, while the reservation baseline's throughput is
// directly gated by it (fewer slots = fewer concurrent grants).
func TestHandshakeBufferIndependence(t *testing.T) {
	lat := func(s Scheme, depth int) float64 {
		res, _ := drive(t, s, 0.02, func(c *Config) { c.BufferDepth = depth })
		return res.AvgLatency
	}
	shallow, deep := lat(HandshakeSetaside, 2), lat(HandshakeSetaside, 32)
	if ratio := shallow / deep; ratio > 1.2 || ratio < 0.8 {
		t.Errorf("SWMR handshake latency depends on depth: %.1f vs %.1f", shallow, deep)
	}
}

// TestRxPortsScaleThroughput: more buffer-write ports let the handshake
// receiver absorb clashing arrivals, reducing NACKs.
func TestRxPortsScaleThroughput(t *testing.T) {
	drops := func(ports int) float64 {
		res, _ := drive(t, HandshakeSetaside, 0.08, func(c *Config) { c.RxPorts = ports })
		return res.PortDropRate
	}
	one, four := drops(1), drops(4)
	if four >= one {
		t.Errorf("port drops did not fall with more rx ports: 1 port %.4f vs 4 ports %.4f", one, four)
	}
}

// TestReservationWaitTracksLoad: the request-grant wait grows with load
// (grants defer when slots or ports are booked).
func TestReservationWaitTracksLoad(t *testing.T) {
	wait := func(rate float64) float64 {
		res, _ := drive(t, Reservation, rate, nil)
		return res.AvgReservation
	}
	// At light loads the wait is the bare notification round trip; near
	// the per-node serialisation limit grants defer and the wait grows.
	light, heavy := wait(0.005), wait(0.025)
	if heavy < light-0.1 {
		t.Errorf("reservation wait fell with load: %.1f -> %.1f", light, heavy)
	}
	// The floor is about one notification round trip.
	if light < float64(DefaultConfig(Reservation).RoundTrip)/2 {
		t.Errorf("reservation wait %.1f below any plausible notification trip", light)
	}
}

// TestReservationWideRxPorts: the reservation baseline delivers every
// packet however many receiver ports there are. A per-slot port count
// narrower than RxPorts would wrap it (an 8-bit count from 128 ports on),
// so no slot would ever look free and nothing would be granted.
func TestReservationWideRxPorts(t *testing.T) {
	want, _ := drive(t, Reservation, 0.01, nil)
	if want.Delivered == 0 || want.Unfinished != 0 {
		t.Fatalf("default ports: delivered %d, unfinished %d", want.Delivered, want.Unfinished)
	}
	for _, ports := range []int{127, 128, 256} {
		res, _ := drive(t, Reservation, 0.01, func(c *Config) { c.RxPorts = ports })
		if res.Delivered != want.Delivered || res.Unfinished != 0 {
			t.Errorf("%d rx ports: delivered %d of %d, unfinished %d", ports, res.Delivered, want.Delivered, res.Unfinished)
		}
	}
}
