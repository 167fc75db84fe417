package router

import (
	"testing"

	"photon/internal/sim"
)

func pkt(id uint64, dst int) *Packet { return NewPacket(id, 0, dst, 0) }

func TestPacketTimestamps(t *testing.T) {
	p := NewPacket(1, 2, 3, 10)
	if p.EnqueuedAt != -1 || p.SentAt != -1 || p.DeliveredAt != -1 {
		t.Fatal("fresh packet has set timestamps")
	}
	p.EnqueuedAt, p.ReadyAt, p.FirstSentAt, p.SentAt, p.DeliveredAt = 12, 13, 20, 20, 29
	if p.Latency() != 19 {
		t.Fatalf("Latency = %d", p.Latency())
	}
	if p.QueueWait() != 8 {
		t.Fatalf("QueueWait = %d", p.QueueWait())
	}
	if p.ArbitrationWait() != 7 {
		t.Fatalf("ArbitrationWait = %d", p.ArbitrationWait())
	}
}

func TestPacketLatencyPanicsUndelivered(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Latency of undelivered packet did not panic")
		}
	}()
	NewPacket(1, 0, 1, 5).Latency()
}

func TestClassString(t *testing.T) {
	if ClassData.String() != "data" || ClassRequest.String() != "request" || ClassReply.String() != "reply" {
		t.Fatal("class labels wrong")
	}
}

func TestFireAndForget(t *testing.T) {
	o := NewOutPort(FireAndForget, 0, 0)
	p1, p2 := pkt(1, 5), pkt(2, 6)
	o.Enqueue(p1)
	o.Enqueue(p2)
	if got := o.NextReady(); got != p1 {
		t.Fatalf("NextReady = %v", got)
	}
	o.MarkSent(p1, 10)
	if p1.SentAt != 10 || p1.FirstSentAt != 10 {
		t.Fatal("send timestamps not set")
	}
	// The port forgot p1: next is immediately p2.
	if got := o.NextReady(); got != p2 {
		t.Fatalf("after send NextReady = %v, want p2", got)
	}
	if o.Unacked() != 0 {
		t.Fatalf("fire-and-forget has %d unacked", o.Unacked())
	}
}

func TestHoldHeadBlocksUntilAck(t *testing.T) {
	o := NewOutPort(HoldHead, 0, 0)
	p1, p2 := pkt(1, 5), pkt(2, 6)
	o.Enqueue(p1)
	o.Enqueue(p2)
	o.MarkSent(p1, 10)
	if o.NextReady() != nil {
		t.Fatal("head not blocked while un-ACKed")
	}
	if o.Unacked() != 1 {
		t.Fatalf("Unacked = %d", o.Unacked())
	}
	got, err := o.Ack(1)
	if err != nil || got != p1 {
		t.Fatalf("Ack: %v %v", got, err)
	}
	if o.NextReady() != p2 {
		t.Fatal("head not released after ACK")
	}
}

func TestHoldHeadNackRetransmits(t *testing.T) {
	o := NewOutPort(HoldHead, 0, 0)
	p1 := pkt(1, 5)
	o.Enqueue(p1)
	o.MarkSent(p1, 10)
	if _, err := o.Nack(1); err != nil {
		t.Fatal(err)
	}
	if o.NextReady() != p1 {
		t.Fatal("NACKed packet not offered for retransmission")
	}
	o.MarkSent(p1, 25)
	if p1.Retransmissions != 1 {
		t.Fatalf("Retransmissions = %d", p1.Retransmissions)
	}
	if p1.FirstSentAt != 10 || p1.SentAt != 25 {
		t.Fatalf("timestamps after retx: first %d last %d", p1.FirstSentAt, p1.SentAt)
	}
	if o.NextReady() != nil {
		t.Fatal("retransmitted packet should await its new handshake")
	}
	if _, err := o.Ack(1); err != nil {
		t.Fatal(err)
	}
	if o.Backlog() != 0 {
		t.Fatalf("Backlog = %d", o.Backlog())
	}
}

func TestSetasideFreesHead(t *testing.T) {
	o := NewOutPort(Setaside, 0, 2)
	p1, p2, p3, p4 := pkt(1, 5), pkt(2, 6), pkt(3, 7), pkt(4, 8)
	for _, p := range []*Packet{p1, p2, p3, p4} {
		o.Enqueue(p)
	}
	o.MarkSent(p1, 10)
	if o.NextReady() != p2 {
		t.Fatal("setaside did not free the head")
	}
	o.MarkSent(p2, 11)
	// Both setaside slots full: head blocked.
	if o.NextReady() != nil {
		t.Fatal("full setaside did not block")
	}
	if o.Unacked() != 2 {
		t.Fatalf("Unacked = %d", o.Unacked())
	}
	if _, err := o.Ack(1); err != nil {
		t.Fatal(err)
	}
	if o.NextReady() != p3 {
		t.Fatal("freed setaside slot did not unblock the head")
	}
}

func TestSetasideNackPriority(t *testing.T) {
	o := NewOutPort(Setaside, 0, 4)
	p1, p2, p3 := pkt(1, 5), pkt(2, 6), pkt(3, 7)
	for _, p := range []*Packet{p1, p2, p3} {
		o.Enqueue(p)
	}
	o.MarkSent(p1, 10)
	o.MarkSent(p2, 11)
	if _, err := o.Nack(2); err != nil {
		t.Fatal(err)
	}
	// The NACKed p2 must outrank the queue head p3.
	if o.NextReady() != p2 {
		t.Fatal("retransmission did not take priority over the head")
	}
	o.MarkSent(p2, 20)
	if o.NextReady() != p3 {
		t.Fatal("after retransmit the head should be offered")
	}
}

func TestAckUnknownPacketErrors(t *testing.T) {
	o := NewOutPort(Setaside, 0, 2)
	if _, err := o.Ack(99); err == nil {
		t.Fatal("ACK for unknown packet accepted")
	}
	if _, err := o.Nack(99); err == nil {
		t.Fatal("NACK for unknown packet accepted")
	}
}

func TestAckWhileRetxPendingErrors(t *testing.T) {
	o := NewOutPort(HoldHead, 0, 0)
	p1 := pkt(1, 5)
	o.Enqueue(p1)
	o.MarkSent(p1, 1)
	o.Nack(1)
	if _, err := o.Ack(1); err == nil {
		t.Fatal("ACK for a retransmission-pending packet accepted")
	}
}

func TestMarkSentPanicsOnNonHead(t *testing.T) {
	o := NewOutPort(FireAndForget, 0, 0)
	p1, p2 := pkt(1, 5), pkt(2, 6)
	o.Enqueue(p1)
	o.Enqueue(p2)
	defer func() {
		if recover() == nil {
			t.Fatal("sending a non-head packet did not panic")
		}
	}()
	o.MarkSent(p2, 10)
}

func TestBoundedQueueRejects(t *testing.T) {
	o := NewOutPort(FireAndForget, 2, 0)
	if !o.Enqueue(pkt(1, 1)) || !o.Enqueue(pkt(2, 1)) {
		t.Fatal("enqueue within bound failed")
	}
	if o.Enqueue(pkt(3, 1)) {
		t.Fatal("enqueue beyond bound succeeded")
	}
	if o.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d", o.QueueLen())
	}
}

func TestSetasideNeedsSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("setaside policy with zero slots did not panic")
		}
	}()
	NewOutPort(Setaside, 0, 0)
}

func TestPolicyString(t *testing.T) {
	if FireAndForget.String() == "" || HoldHead.String() == "" || Setaside.String() == "" {
		t.Fatal("policy labels empty")
	}
}

func TestInPortAcceptAndEject(t *testing.T) {
	in := NewInPort(2, 1, 0, nil)
	p1, p2, p3 := pkt(1, 0), pkt(2, 0), pkt(3, 0)
	if !in.Accept(p1) || !in.Accept(p2) {
		t.Fatal("accept within depth failed")
	}
	if in.HasSpace() {
		t.Fatal("HasSpace at capacity")
	}
	if in.Accept(p3) {
		t.Fatal("accept beyond depth succeeded")
	}
	out := in.Eject()
	if len(out) != 1 || out[0] != p1 {
		t.Fatalf("Eject = %v", out)
	}
	if in.Occupied() != 1 || in.Peak() != 2 || in.Ejected() != 1 {
		t.Fatalf("occupied %d peak %d ejected %d", in.Occupied(), in.Peak(), in.Ejected())
	}
}

func TestInPortEjectRate(t *testing.T) {
	in := NewInPort(8, 3, 0, nil)
	for i := 0; i < 5; i++ {
		in.Accept(pkt(uint64(i), 0))
	}
	if got := len(in.Eject()); got != 3 {
		t.Fatalf("ejected %d, want rate 3", got)
	}
	if got := len(in.Eject()); got != 2 {
		t.Fatalf("second eject %d, want 2", got)
	}
}

func TestInPortStall(t *testing.T) {
	in := NewInPort(8, 1, 1.0, sim.NewRNG(1)) // always stall
	in.Accept(pkt(1, 0))
	for i := 0; i < 10; i++ {
		if len(in.Eject()) != 0 {
			t.Fatal("stalled port ejected")
		}
	}
	if in.Occupied() != 1 {
		t.Fatalf("Occupied = %d after ten stalled cycles", in.Occupied())
	}
}

func TestInPortValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"depth": func() { NewInPort(0, 1, 0, nil) },
		"rate":  func() { NewInPort(1, 0, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad arg did not panic", name)
				}
			}()
			f()
		}()
	}
}
