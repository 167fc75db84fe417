package router

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"photon/internal/sim"
)

// pkt returns a packet ready to enqueue: created and stamped EnqueuedAt at
// cycle 0.
func pkt(id uint64, dst int) *Packet {
	p := NewPacket(id, 0, dst, 0)
	p.EnqueuedAt = 0
	return p
}

// port returns an output port on a poisoning pool, so a test that reads a
// packet after the port compacted it reads garbage.
func port(policy SendPolicy, queueCap, setasideCap int) *OutPort {
	return NewOutPort(policy, queueCap, setasideCap, NewPool(true))
}

// readyID returns the id of o's NextReady packet, or 0 when there is none.
func readyID(o *OutPort) uint64 {
	if p := o.NextReady(); p != nil {
		return p.ID
	}
	return 0
}

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
	o := port(FireAndForget, 0, 0)
	p1 := pkt(1, 5)
	o.Enqueue(p1)
	o.Enqueue(pkt(2, 6))
	if got := readyID(o); got != 1 {
		t.Fatalf("NextReady = %d, want 1", got)
	}
	o.MarkSent(p1, 10)
	if p1.SentAt != 10 || p1.FirstSentAt != 10 {
		t.Fatal("send timestamps not set")
	}
	// The port forgot p1: next is immediately p2.
	if got := readyID(o); got != 2 {
		t.Fatalf("after send NextReady = %d, want 2", got)
	}
	if o.Unacked() != 0 {
		t.Fatalf("fire-and-forget has %d unacked", o.Unacked())
	}
}

func TestHoldHeadBlocksUntilAck(t *testing.T) {
	o := port(HoldHead, 0, 0)
	p1 := pkt(1, 5)
	o.Enqueue(p1)
	o.Enqueue(pkt(2, 6))
	o.MarkSent(p1, 10)
	if o.NextReady() != nil {
		t.Fatal("head not blocked while un-ACKed")
	}
	if o.Unacked() != 1 {
		t.Fatalf("Unacked = %d", o.Unacked())
	}
	got, err := o.Ack(1)
	if err != nil || got.ID != 1 {
		t.Fatalf("Ack: %v %v", got, err)
	}
	if readyID(o) != 2 {
		t.Fatal("head not released after ACK")
	}
}

func TestHoldHeadNackRetransmits(t *testing.T) {
	o := port(HoldHead, 0, 0)
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
	o := port(Setaside, 0, 2)
	for id := uint64(1); id <= 4; id++ {
		o.Enqueue(pkt(id, 4+int(id)))
	}
	o.MarkSent(o.NextReady(), 10)
	if readyID(o) != 2 {
		t.Fatal("setaside did not free the head")
	}
	o.MarkSent(o.NextReady(), 11)
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
	if readyID(o) != 3 {
		t.Fatal("freed setaside slot did not unblock the head")
	}
}

func TestSetasideNackPriority(t *testing.T) {
	o := port(Setaside, 0, 4)
	for id := uint64(1); id <= 3; id++ {
		o.Enqueue(pkt(id, 4+int(id)))
	}
	o.MarkSent(o.NextReady(), 10)
	o.MarkSent(o.NextReady(), 11)
	if _, err := o.Nack(2); err != nil {
		t.Fatal(err)
	}
	// The NACKed p2 must outrank the queue head p3.
	if readyID(o) != 2 {
		t.Fatal("retransmission did not take priority over the head")
	}
	o.MarkSent(o.NextReady(), 20)
	if readyID(o) != 3 {
		t.Fatal("after retransmit the head should be offered")
	}
}

func TestAckUnknownPacketErrors(t *testing.T) {
	o := port(Setaside, 0, 2)
	if _, err := o.Ack(99); err == nil {
		t.Fatal("ACK for unknown packet accepted")
	}
	if _, err := o.Nack(99); err == nil {
		t.Fatal("NACK for unknown packet accepted")
	}
}

func TestAckWhileRetxPendingErrors(t *testing.T) {
	o := port(HoldHead, 0, 0)
	p1 := pkt(1, 5)
	o.Enqueue(p1)
	o.MarkSent(p1, 1)
	o.Nack(1)
	if _, err := o.Ack(1); err == nil {
		t.Fatal("ACK for a retransmission-pending packet accepted")
	}
}

func TestMarkSentPanicsOnNonHead(t *testing.T) {
	o := port(FireAndForget, 0, 0)
	o.Enqueue(pkt(1, 5))
	p2 := pkt(2, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("sending a non-head packet did not panic")
		}
	}()
	o.MarkSent(p2, 10)
}

func TestBoundedQueueRejects(t *testing.T) {
	o := port(FireAndForget, 2, 0)
	for id := uint64(1); id <= 2; id++ {
		if o.Full() {
			t.Fatal("queue full within bound")
		}
		o.Enqueue(pkt(id, 1))
	}
	if !o.Full() {
		t.Fatal("queue not full at its bound")
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
	port(Setaside, 0, 0)
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

// TestOutPortQueue drives each send policy's queue through depths that
// end short of, on and past segment edges, and past the pool's single
// segments into its slabs, and checks that the head is built back field
// for field from its descriptor, in FIFO order, that a bounded queue
// counts head plus descriptors against its bound, and that an emptied
// queue gives every segment back to the pool.
func TestOutPortQueue(t *testing.T) {
	if got := unsafe.Sizeof(desc{}); got != 32 {
		t.Errorf("a queue descriptor takes %d bytes, want 32", got)
	}
	for _, policy := range []SendPolicy{FireAndForget, HoldHead, Setaside} {
		for _, depth := range []int{0, 1, 7, 8, 9, 17, 100, slabLen*segLen + 1, 3 * slabLen * segLen} {
			for _, bounded := range []bool{false, true} {
				name := fmt.Sprintf("%v/%d/bounded=%v", policy, depth, bounded)
				t.Run(name, func(t *testing.T) { checkQueue(t, policy, depth, bounded) })
			}
		}
	}
}

func checkQueue(t *testing.T, policy SendPolicy, depth int, bounded bool) {
	pool := NewPool(true)
	queueCap := 0
	if bounded {
		queueCap = max(depth, 1)
	}
	setasideCap := 0
	if policy == Setaside {
		setasideCap = 2
	}
	o := NewOutPort(policy, queueCap, setasideCap, pool)
	var want []Packet // what went in, oldest first
	next := uint64(1)
	// peak is the most segments the queue linked at once: each segment the
	// pool made was made while all the others were linked.
	peak := 0
	linked := func() {
		n := 0
		for s := o.first; s != nil; s = s.next {
			n++
		}
		peak = max(peak, n)
	}
	push := func() {
		if o.Full() {
			t.Fatalf("queue of %d full below its bound %d", o.QueueLen(), queueCap)
		}
		id := next
		next++
		p := NewPacket(id, int(id%5), int(id%7)+1, int64(id)*3)
		p.EnqueuedAt = p.CreatedAt + int64(id%4)
		p.Class = Class(id % 3)
		p.Measured = id%2 == 0
		p.Tag = id<<40 | id*11
		want = append(want, *p)
		o.Enqueue(p)
		linked()
	}
	pop := func(now int64) {
		h := o.NextReady()
		if h == nil {
			t.Fatalf("no head with %d queued", o.QueueLen())
		}
		if *h != want[0] {
			t.Fatalf("head built as\n %+v\nwant\n %+v", *h, want[0])
		}
		want = want[1:]
		o.MarkSent(h, now)
		if policy != FireAndForget {
			if _, err := o.Ack(h.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range depth {
		push()
	}
	if o.QueueLen() != depth || o.Backlog() != depth {
		t.Fatalf("QueueLen %d, Backlog %d after %d enqueues", o.QueueLen(), o.Backlog(), depth)
	}
	if bounded && depth > 0 {
		if !o.Full() {
			t.Fatalf("queue of %d not full at its bound", depth)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("enqueue into a full queue did not panic")
				}
			}()
			o.Enqueue(pkt(next, 1))
		}()
	}
	// Roll the queue across segment edges at constant depth, then drain it.
	now := int64(1000)
	for i := 0; depth > 0 && i < 3*segLen; i++ {
		pop(now)
		push()
		now++
	}
	for o.QueueLen() > 0 {
		pop(now)
		now++
	}
	if len(want) != 0 || o.NextReady() != nil {
		t.Fatalf("%d packets lost in the queue", len(want))
	}
	if o.first != nil || o.last != nil {
		t.Fatal("an emptied queue still links segments")
	}
	segs := 0
	for s := pool.segs; s != nil; s = s.next {
		segs++
	}
	// The pool made singles up to slabLen, then whole slabs.
	made := peak
	if peak > slabLen {
		made = slabLen + (peak-1)/slabLen*slabLen
	}
	if segs != made {
		t.Fatalf("pool holds %d segments after the queue emptied; the queue linked up to %d, so the pool made %d", segs, peak, made)
	}
	if most := (depth + segLen - 2) / segLen; peak < most || peak > most+1 {
		t.Fatalf("%d descriptors behind a head took %d segments", depth-1, peak)
	}
}

// TestSegmentSlabFillsItsSizeClass pins what the pool pays per segment on
// 64-bit platforms: a slab of slabLen segments costs exactly its size and
// the allocator's 8-byte header, 8,192 bytes, where a lone segment would
// take the 288-byte class.
func TestSegmentSlabFillsItsSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size classes pinned here are those of 64-bit platforms")
	}
	if got := unsafe.Sizeof(segment{}); got != 264 {
		t.Errorf("a segment takes %d bytes, want 264", got)
	}
	const slabs = 16
	pool := NewPool(false)
	keep := make([]*segment, (slabs+1)*slabLen) // the singles, then the slabs
	for i := range slabLen {
		keep[i] = pool.seg()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := slabLen; i < len(keep); i++ {
		keep[i] = pool.seg()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	const want = slabLen*unsafe.Sizeof(segment{}) + 8
	if got := (after.TotalAlloc - before.TotalAlloc) / slabs; got != uint64(want) || want != 8192 {
		t.Errorf("a slab of %d segments costs %d bytes, want %d = 8,192", slabLen, got, want)
	}
}
