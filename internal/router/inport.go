package router

import "photon/internal/sim"

// InPort is the home node's input side: the buffer behind O/E conversion
// whose depth is exactly the credit count advertised by the token-based
// schemes and the accept/drop threshold of the handshake schemes. Packets
// drain from it to the node's cores at EjectRate packets per cycle.
//
// StallProb models receiver-side ejection contention (the cores, the
// concentrated router's local ports): with probability StallProb a cycle
// ejects nothing. The paper's full-system runs see such contention — it is
// what makes the sub-1% packet drops of the handshake schemes possible at
// all — while pure open-loop runs leave it at 0.
type InPort struct {
	buf       *sim.Queue[*Packet]
	ejectRate int
	stallProb float64
	rng       *sim.RNG

	// scratch backs the slice Eject returns; the caller owns it only until
	// the next Eject call, which keeps the per-cycle drain allocation-free.
	scratch []*Packet

	ejected int64
	peak    int
}

// NewInPort builds an ejection buffer with the given depth (credits),
// drain rate and stall probability. rng may be nil when stallProb is 0.
func NewInPort(depth, ejectRate int, stallProb float64, rng *sim.RNG) *InPort {
	if depth < 1 {
		panic("router: input buffer depth must be >= 1")
	}
	if ejectRate < 1 {
		panic("router: eject rate must be >= 1")
	}
	return &InPort{
		buf:       sim.NewQueue[*Packet](depth),
		ejectRate: ejectRate,
		stallProb: stallProb,
		rng:       rng,
	}
}

// Occupied reports current occupancy.
func (in *InPort) Occupied() int { return in.buf.Len() }

// Peak reports the largest occupancy observed.
func (in *InPort) Peak() int { return in.peak }

// HasSpace reports whether an arriving packet can be buffered this cycle.
func (in *InPort) HasSpace() bool { return !in.buf.Full() }

// Accept buffers an arriving packet; false means the buffer is full (the
// handshake schemes drop or recirculate in that case; credit schemes treat
// it as a protocol violation).
func (in *InPort) Accept(p *Packet) bool {
	ok := in.buf.PushBack(p)
	if ok && in.buf.Len() > in.peak {
		in.peak = in.buf.Len()
	}
	return ok
}

// Eject drains up to EjectRate packets to the cores and returns them; an
// ejection stall (probability StallProb) drains nothing this cycle. The
// returned slice is valid only until the next Eject call.
func (in *InPort) Eject() []*Packet {
	if in.stallProb > 0 && in.rng != nil && in.rng.Bernoulli(in.stallProb) {
		return nil
	}
	if in.buf.Empty() {
		return nil
	}
	out := in.scratch[:0]
	for i := 0; i < in.ejectRate; i++ {
		p, ok := in.buf.PopFront()
		if !ok {
			break
		}
		out = append(out, p)
		in.ejected++
	}
	in.scratch = out
	return out
}

// Ejected reports the cumulative ejected packet count.
func (in *InPort) Ejected() int64 { return in.ejected }
