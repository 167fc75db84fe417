package ring

import "photon/internal/sim"

// Ack is one handshake pulse: a single-bit ACK/NACK addressed to the sender
// of a specific packet. The paper dedicates one wavelength per home node on
// a shared handshake waveguide; because the sender knows exactly when its
// answer is due (R+1 cycles after launch), one bit of payload —
// positive or negative — is all that is needed.
type Ack struct {
	// To is the absolute node id of the sender being answered.
	To int
	// PacketID identifies the packet the answer refers to (simulator-side
	// bookkeeping; the hardware needs no id thanks to fixed timing).
	PacketID uint64
	// Queue is the sender-side output queue (core index within the node)
	// the answered packet was launched from — simulator-side routing that
	// lets delivery address the owning port directly instead of probing
	// every queue at the node. The hardware needs no such field: the
	// per-queue pending state is indexed by the same fixed timing that
	// makes PacketID redundant.
	Queue int
	// Positive is true for ACK (packet buffered at home), false for NACK
	// (packet dropped; sender must retransmit).
	Positive bool
}

// LossFunc decides, at delivery time, whether a pulse is destroyed in
// flight (fault injection). It sees the delivery cycle and the pulse.
type LossFunc func(now int64, a Ack) bool

// HandshakeChannel carries Ack pulses from a home node back to senders with
// the fixed R+1 timing of the loop geometry (Geometry.HandshakeReturn).
type HandshakeChannel struct {
	geom      *Geometry
	line      *sim.DelayLine[Ack]
	acks      int64
	nacks     int64
	loss      LossFunc
	acksLost  int64
	nacksLost int64
}

// NewHandshakeChannel builds the handshake channel for one home node.
func NewHandshakeChannel(geom *Geometry) *HandshakeChannel {
	return &HandshakeChannel{
		geom: geom,
		line: sim.NewDelayLine[Ack](2*geom.RoundTrip() + 4),
	}
}

// Send launches the answer for a packet that arrived at the home node at
// cycle arrivedAt from downstream offset p; the sender observes it at the
// returned cycle, Geometry.HandshakeReturn(arrivedAt, p). Deliver need
// only be called in cycles some Send returned.
func (h *HandshakeChannel) Send(arrivedAt int64, p int, ack Ack) int64 {
	if ack.Positive {
		h.acks++
	} else {
		h.nacks++
	}
	due := h.geom.HandshakeReturn(arrivedAt, p)
	h.line.Schedule(arrivedAt, due, ack)
	return due
}

// SetLoss installs a fault filter consulted for every delivered pulse.
// Destroyed pulses never reach their sender; the send-side counters stay
// intact (the home node did emit them) while Lost accounts the casualties.
func (h *HandshakeChannel) SetLoss(f LossFunc) { h.loss = f }

// Lost reports cumulative (ACK, NACK) pulses destroyed in flight.
func (h *HandshakeChannel) Lost() (acksLost, nacksLost int64) {
	return h.acksLost, h.nacksLost
}

// Deliver returns the pulses reaching their senders this cycle. With a
// loss filter installed, destroyed pulses are removed (and counted) before
// the survivors are handed over.
func (h *HandshakeChannel) Deliver(now int64) []Ack {
	due := h.line.PopDue(now)
	if h.loss == nil || len(due) == 0 {
		return due
	}
	kept := due[:0]
	for _, a := range due {
		if h.loss(now, a) {
			if a.Positive {
				h.acksLost++
			} else {
				h.nacksLost++
			}
			continue
		}
		kept = append(kept, a)
	}
	return kept
}

// Sent reports cumulative (ACK, NACK) counts.
func (h *HandshakeChannel) Sent() (acksSent, nacksSent int64) { return h.acks, h.nacks }
