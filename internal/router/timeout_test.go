package router

import "testing"

// launchHeld enqueues and launches one packet on a HoldHead port.
func launchHeld(t *testing.T, o *OutPort, id uint64, now int64) *Packet {
	t.Helper()
	p := pkt(id, 1)
	o.Enqueue(p)
	if got := o.NextReady(); got != p {
		t.Fatalf("NextReady = %v, want the enqueued packet", got)
	}
	o.MarkSent(p, now)
	return p
}

func TestArmAndFireAtDeadline(t *testing.T) {
	o := port(HoldHead, 0, 0)
	p := launchHeld(t, o, 1, 100)
	deadline := o.Arm(p, 100, 20, 4)
	if deadline != 120 {
		t.Fatalf("deadline = %d, want 120", deadline)
	}
	// One cycle before the deadline: must not fire.
	if fired := o.ExpireTimeouts(119, nil); fired != 0 {
		t.Fatalf("timer fired %d at cycle 119, before its deadline", fired)
	}
	// Exactly at the deadline: must fire, once, reporting the packet.
	var got *Packet
	if fired := o.ExpireTimeouts(120, func(p *Packet) { got = p }); fired != 1 {
		t.Fatalf("fired %d at the deadline, want 1", fired)
	}
	if got != p {
		t.Fatalf("timeout reported %v, want the armed packet", got)
	}
	// The entry is now marked for retransmission and disarmed: a second
	// sweep the same cycle (or later) must not fire again.
	if fired := o.ExpireTimeouts(120, nil); fired != 0 {
		t.Fatalf("disarmed timer re-fired %d times", fired)
	}
	if o.NextReady() != p {
		t.Fatal("timed-out packet is not retransmission-ready")
	}
}

// TestAckAtDeadlineBoundary: the handshake phase runs before the timeout
// phase, so an ACK processed at the deadline cycle removes the entry and
// the timer has nothing left to fire on.
func TestAckAtDeadlineBoundary(t *testing.T) {
	o := port(HoldHead, 0, 0)
	p := launchHeld(t, o, 1, 0)
	o.Arm(p, 0, 20, 4)
	if _, err := o.Ack(p.ID); err != nil {
		t.Fatalf("ACK at the deadline cycle: %v", err)
	}
	if fired := o.ExpireTimeouts(20, nil); fired != 0 {
		t.Fatalf("timer fired %d after its packet was ACKed", fired)
	}
	if o.Unacked() != 0 {
		t.Fatal("port still holds the ACKed packet")
	}
}

// TestBackoffDoublingAndCap: consecutive unanswered launches double the
// timeout up to base<<cap.
func TestBackoffDoublingAndCap(t *testing.T) {
	o := port(HoldHead, 0, 0)
	p := launchHeld(t, o, 1, 0)
	now := int64(0)
	wantShift := []int64{20, 40, 80, 160, 320, 320, 320} // base 20, cap 4
	for i, want := range wantShift {
		deadline := o.Arm(p, now, 20, 4)
		if deadline-now != want {
			t.Fatalf("launch %d: timeout %d, want %d", i, deadline-now, want)
		}
		if fired := o.ExpireTimeouts(deadline, nil); fired != 1 {
			t.Fatalf("launch %d: timer did not fire at %d", i, deadline)
		}
		// Relaunch (the retransmit) and re-arm at the fire cycle.
		o.MarkSent(p, deadline)
		now = deadline
	}
	if p.Retransmissions != len(wantShift) {
		t.Fatalf("retransmissions = %d, want %d", p.Retransmissions, len(wantShift))
	}
}

// TestNackResetsBackoff: a NACK is a definitive answer — it disarms the
// timer and resets the backoff level (backoff compensates for silence, not
// congestion).
func TestNackResetsBackoff(t *testing.T) {
	o := port(HoldHead, 0, 0)
	p := launchHeld(t, o, 1, 0)
	// Two unanswered launches escalate the backoff to 2.
	o.Arm(p, 0, 20, 4)
	o.ExpireTimeouts(20, nil)
	o.MarkSent(p, 20)
	o.Arm(p, 20, 20, 4)
	o.ExpireTimeouts(60, nil)
	o.MarkSent(p, 60)

	if _, err := o.Nack(p.ID); err != nil {
		t.Fatalf("NACK: %v", err)
	}
	// The NACK disarmed the timer...
	if fired := o.ExpireTimeouts(10_000, nil); fired != 0 {
		t.Fatalf("NACKed entry's timer fired %d times", fired)
	}
	// ...and the next launch arms at the base timeout again.
	o.MarkSent(p, 100)
	if deadline := o.Arm(p, 100, 20, 4); deadline != 120 {
		t.Fatalf("post-NACK deadline = %d, want the un-backed-off 120", deadline)
	}
}

// TestNackWhileAwaitingRetx: a NACK for a packet already marked for
// retransmission (NACK lost, timeout fired, then the retransmit is NACKed
// again before relaunch bookkeeping settles) must stay coherent: the entry
// remains retransmission-ready and a later ACK of a retx-marked entry is
// rejected.
func TestNackWhileAwaitingRetx(t *testing.T) {
	o := port(Setaside, 0, 2)
	p := pkt(1, 1)
	o.Enqueue(p)
	o.MarkSent(p, 0)
	o.Arm(p, 0, 20, 4)
	o.ExpireTimeouts(20, nil) // NACK was lost; the timer recovered
	if _, err := o.Nack(p.ID); err != nil {
		t.Fatalf("NACK on a retx-marked entry: %v", err)
	}
	if o.NextReady() != p {
		t.Fatal("entry lost its retransmission-ready state")
	}
	if _, err := o.Ack(p.ID); err == nil {
		t.Fatal("ACK accepted for a packet marked for retransmission")
	}
	// The relaunch proceeds normally and can be ACKed.
	o.MarkSent(p, 30)
	if _, err := o.Ack(p.ID); err != nil {
		t.Fatalf("ACK after relaunch: %v", err)
	}
}

// TestExpireSkipsUnarmedAndPending: unarmed entries (deadline 0) never
// fire, and a fired entry stays silent until re-armed by its relaunch.
func TestExpireSkipsUnarmedAndPending(t *testing.T) {
	o := port(Setaside, 0, 4)
	armed := pkt(1, 1)
	unarmed := pkt(2, 1)
	for _, p := range []*Packet{armed, unarmed} {
		o.Enqueue(p)
		o.MarkSent(p, 0)
	}
	o.Arm(armed, 0, 20, 4)
	if fired := o.ExpireTimeouts(1_000, nil); fired != 1 {
		t.Fatalf("fired %d, want only the armed entry", fired)
	}
	if fired := o.ExpireTimeouts(2_000, nil); fired != 0 {
		t.Fatalf("fired %d more after the entry was already pending retx", fired)
	}
}

func TestArmUnknownPacketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Arm of an un-held packet did not panic")
		}
	}()
	o := port(HoldHead, 0, 0)
	o.Arm(pkt(9, 1), 0, 20, 4)
}
