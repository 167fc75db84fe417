// Package router models the electrical side of each optical network node:
// the two-stage pipelined router (RC+SA, ST) the paper derives from a
// conventional VC router by dropping VC allocation (§IV-B), the output
// queue feeding E/O conversion, the setaside buffers that cure
// head-of-line blocking, and the input (ejection) buffer behind O/E
// conversion.
package router

// Class distinguishes packet roles for the closed-loop CMP experiments;
// the network treats all classes identically (single-flit packets on wide
// optical channels).
type Class uint8

const (
	// ClassData is a plain data packet (synthetic and trace workloads).
	ClassData Class = iota
	// ClassRequest is a memory request travelling core -> L2 bank.
	ClassRequest
	// ClassReply is a memory reply travelling L2 bank -> core.
	ClassReply
)

func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassRequest:
		return "request"
	case ClassReply:
		return "reply"
	default:
		return "class?"
	}
}

// Packet is the unit of transfer: one single-flit packet, as the paper
// assumes throughout ("given the high bandwidth density of nanophotonics,
// the channels are often wide enough so that a large data packet can fit in
// a single flit").
//
// Timestamps are cycle numbers; -1 marks "not yet". They trace the full
// life of a packet and feed every latency statistic:
//
//	CreatedAt   — handed to the router by a core
//	EnqueuedAt  — entered the output queue (after the 2-cycle pipeline)
//	ReadyAt     — first became eligible for channel arbitration
//	FirstSentAt — first launch onto the optical channel
//	SentAt      — most recent launch (differs from FirstSentAt after NACK)
//	DeliveredAt — ejected to the destination's core
type Packet struct {
	ID  uint64
	Src int // source node
	Dst int // destination (home) node

	CreatedAt   int64
	EnqueuedAt  int64
	ReadyAt     int64
	FirstSentAt int64
	SentAt      int64
	DeliveredAt int64
	// AcceptedAt is when the home node first accepted the packet into its
	// input buffer. It stands in for the home's bounded duplicate-detection
	// registry under fault injection: a timeout retransmission of an
	// already-accepted packet (its ACK died in flight) is recognised and
	// discarded on arrival. -1 until accepted.
	AcceptedAt int64

	// Retransmissions counts NACK-triggered re-sends (handshake schemes).
	Retransmissions int

	// Measured marks packets injected inside the measurement window.
	Measured bool

	Class Class
	// holders counts the places in internal/core's engine that hold the
	// packet now: injection pipeline, output port, each copy on a waveguide,
	// home input buffer. The engine recycles the packet when Drop takes it
	// to zero (DESIGN.md, "Packet lifetime"); swmr never touches it.
	holders int32
	// Tag carries workload-defined context (e.g. the MSHR id of the
	// memory transaction a request belongs to).
	Tag uint64
}

// NewPacket returns a packet with all timestamps unset, held once by its
// creator.
func NewPacket(id uint64, src, dst int, created int64) *Packet {
	p := new(Packet)
	p.Reset(id, src, dst, created)
	return p
}

// Reset starts the packet's life over. Every field is assigned: a stale
// AcceptedAt would make a recycled packet's next life a "duplicate", a
// stale FirstSentAt its first launch a retransmission.
func (p *Packet) Reset(id uint64, src, dst int, created int64) {
	*p = Packet{
		ID:  id,
		Src: src, Dst: dst,
		CreatedAt:   created,
		EnqueuedAt:  -1,
		ReadyAt:     -1,
		FirstSentAt: -1,
		SentAt:      -1,
		DeliveredAt: -1,
		AcceptedAt:  -1,
		holders:     1,
	}
}

// Hold records one more holder of the packet.
func (p *Packet) Hold() { p.holders++ }

// Drop records that one holder let go and reports whether it was the last.
func (p *Packet) Drop() bool {
	p.holders--
	if p.holders < 0 {
		panic("router: packet dropped by more holders than held it")
	}
	return p.holders == 0
}

// Latency returns the end-to-end packet latency; it panics when the packet
// has not been delivered (callers filter on DeliveredAt >= 0).
func (p *Packet) Latency() int64 {
	if p.DeliveredAt < 0 || p.CreatedAt < 0 {
		panic("router: latency of an undelivered packet")
	}
	return p.DeliveredAt - p.CreatedAt
}

// QueueWait returns the cycles spent between entering the output queue and
// first launch.
func (p *Packet) QueueWait() int64 {
	if p.FirstSentAt < 0 || p.EnqueuedAt < 0 {
		return -1
	}
	return p.FirstSentAt - p.EnqueuedAt
}

// ArbitrationWait returns the cycles between first becoming head-eligible
// and first launch — the "token waiting time" the paper's handshake schemes
// attack.
func (p *Packet) ArbitrationWait() int64 {
	if p.FirstSentAt < 0 || p.ReadyAt < 0 {
		return -1
	}
	return p.FirstSentAt - p.ReadyAt
}
