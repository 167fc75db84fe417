package ring

import (
	"testing"
)

func TestDataChannelDelivery(t *testing.T) {
	g := MustGeometry(64, 8)
	c := NewDataChannel[int](g)
	due, err := c.Launch(10, 32, 42) // segment 4, flight 5
	if err != nil {
		t.Fatal(err)
	}
	if due != 15 {
		t.Fatalf("arrival at %d, want 15", due)
	}
	for now := int64(0); now < 20; now++ {
		v, ok := c.Arrival(now)
		if (now == 15) != ok {
			t.Fatalf("cycle %d: arrival ok=%v", now, ok)
		}
		if ok && v != 42 {
			t.Fatalf("wrong flit %d", v)
		}
	}
	if c.Launches() != 1 {
		t.Fatalf("Launches = %d", c.Launches())
	}
}

func TestDataChannelCollisionDetected(t *testing.T) {
	g := MustGeometry(64, 8)
	c := NewDataChannel[int](g)
	// Offsets 32 (seg 4, flight 5) at cycle 10 and 40 (seg 5, flight 4)
	// at cycle 11 both land at 15 — strict Launch must refuse.
	if _, err := c.Launch(10, 32, 1); err != nil {
		t.Fatal(err)
	}
	c.Arrival(10)
	if _, err := c.Launch(11, 40, 2); err == nil {
		t.Fatal("overlapping launch not detected")
	}
}

// TestDataChannelStreamBumps checks the global-arbitration stream rule:
// a flit launched right behind another queues back-to-back instead of
// colliding, and arrival order equals launch order.
func TestDataChannelStreamBumps(t *testing.T) {
	g := MustGeometry(64, 8)
	c := NewDataChannel[int](g)
	d1, err := c.LaunchStream(10, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Arrival(10)
	d2, err := c.LaunchStream(11, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != 15 || d2 != 16 {
		t.Fatalf("stream arrivals %d,%d, want 15,16", d1, d2)
	}
	// Drain in order.
	var got []int
	for now := int64(11); now < 20; now++ {
		if v, ok := c.Arrival(now); ok {
			got = append(got, v)
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("arrival order %v", got)
	}
}

// TestDataChannelStreamBoundedLag checks that 1-per-cycle launches keep the
// stream's booking within R+1 cycles of now, so the in-flight population
// stays physical (at most a loop's worth of light).
func TestDataChannelStreamBoundedLag(t *testing.T) {
	g := MustGeometry(64, 8)
	c := NewDataChannel[int](g)
	for now := int64(0); now < 200; now++ {
		c.Arrival(now)
		if _, err := c.LaunchStream(now, 1, int(now)); err != nil { // farthest sender, flight 8
			t.Fatalf("cycle %d: %v", now, err)
		}
		if c.InFlight() > g.RoundTrip()+2 {
			t.Fatalf("cycle %d: %d flits in flight", now, c.InFlight())
		}
	}
	if c.PeakInFlight() > g.RoundTrip()+2 {
		t.Fatalf("peak in flight %d", c.PeakInFlight())
	}
}

func TestReinjectTakesTokenSlot(t *testing.T) {
	g := MustGeometry(64, 8)
	c := NewDataChannel[int](g)
	for now := int64(0); now < 20; now++ {
		c.Arrival(now) // advance the channel clock as the network does
	}
	due, err := c.Reinject(20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if due != 29 { // now + R + 1
		t.Fatalf("reinjection lands at %d, want 29", due)
	}
	if c.Reinjections() != 1 {
		t.Fatalf("Reinjections = %d", c.Reinjections())
	}
	// A token emitted the same cycle would land its packet at the same
	// slot; the emitter suppression prevents that — but a *later* token's
	// packet must not collide either.
	c.Arrival(20)
	if _, err := c.Launch(21+3, 24, 9); err != nil { // token at 21, captured seg 3, flight R+1-3
		t.Fatalf("next token's packet collided with reinjection: %v", err)
	}
}

func TestHandshakeTiming(t *testing.T) {
	g := MustGeometry(64, 8)
	h := NewHandshakeChannel(g)
	for now := int64(0); now < 100; now++ {
		h.Deliver(now) // advance the channel clock as the network does
	}
	// Packet from offset 24 (segment 3) launched at 100 arrives at
	// 100+6=106; the answer must reach the sender at 109 = 100 + R + 1.
	h.Send(106, 24, Ack{To: 5, PacketID: 77, Positive: true})
	for now := int64(100); now < 115; now++ {
		acks := h.Deliver(now)
		if (now == 109) != (len(acks) == 1) {
			t.Fatalf("cycle %d: %d acks", now, len(acks))
		}
		if len(acks) == 1 {
			a := acks[0]
			if a.To != 5 || a.PacketID != 77 || !a.Positive {
				t.Fatalf("wrong ack %+v", a)
			}
		}
	}
	acks, nacks := h.Sent()
	if acks != 1 || nacks != 0 {
		t.Fatalf("Sent = %d,%d", acks, nacks)
	}
}

func TestHandshakeCountsNacks(t *testing.T) {
	g := MustGeometry(64, 8)
	h := NewHandshakeChannel(g)
	h.Send(10, 1, Ack{To: 1, PacketID: 1, Positive: false})
	h.Send(10, 9, Ack{To: 2, PacketID: 2, Positive: true})
	acks, nacks := h.Sent()
	if acks != 1 || nacks != 1 {
		t.Fatalf("Sent = %d,%d", acks, nacks)
	}
	if h.line.Len() != 2 {
		t.Fatalf("%d pulses in flight", h.line.Len())
	}
}
