// Package ring models the cycle-accurate behaviour of light on the shared
// optical rings: where a token is after k cycles, how long a data flit
// flies from a sender to its home node, and when a handshake pulse returns.
//
// The model follows the paper's wave-pipelined channel abstraction
// (§II-C): a unidirectional optical loop with round-trip time R cycles is
// divided into R back-to-back segments; light (tokens, data and handshake
// pulses alike) advances one segment per cycle, i.e. Nodes/R node positions
// per cycle. On the paper's 400 mm^2, 5 GHz, 64-node die R = 8, so light
// passes 8 nodes per cycle — exactly Corona's "a token can pass eight nodes
// in one cycle".
//
// All positions are expressed as *downstream offsets from the home node* of
// the channel under consideration: offset p in 1..Nodes-1 is the p-th node
// the light reaches after leaving home. Working in offset space makes every
// one of the Nodes MWSR channels identical up to rotation.
package ring

import "fmt"

// Geometry captures the timing structure of one optical loop.
type Geometry struct {
	nodes     int // nodes attached to the loop
	roundTrip int // cycles for light to complete the loop (R)
	perCycle  int // node positions light passes per cycle (nodes/R)
}

// NewGeometry builds the timing model for a loop with the given node count
// and round-trip time in cycles. nodes must be divisible by roundTrip so
// that segments hold a whole number of nodes (every configuration used in
// the paper and its scaling discussion — 64/8, 64/4, 64/16, 128/16, ... —
// satisfies this).
func NewGeometry(nodes, roundTrip int) (*Geometry, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("ring: need at least 2 nodes, got %d", nodes)
	}
	if roundTrip < 1 {
		return nil, fmt.Errorf("ring: round trip must be >= 1 cycle, got %d", roundTrip)
	}
	if roundTrip > nodes {
		return nil, fmt.Errorf("ring: round trip %d exceeds node count %d (sub-node segments)", roundTrip, nodes)
	}
	if nodes%roundTrip != 0 {
		return nil, fmt.Errorf("ring: nodes (%d) must be divisible by round trip (%d)", nodes, roundTrip)
	}
	return &Geometry{nodes: nodes, roundTrip: roundTrip, perCycle: nodes / roundTrip}, nil
}

// RoundTrip returns the loop's round-trip time R in cycles.
func (g *Geometry) RoundTrip() int { return g.roundTrip }

// NodesPerCycle returns how many node positions light advances per cycle.
func (g *Geometry) NodesPerCycle() int { return g.perCycle }

// Offset converts an absolute node id into the downstream offset from home:
// 0 for home itself, 1 for the next node light reaches, ..., Nodes-1 for
// the node immediately upstream of home.
func (g *Geometry) Offset(home, node int) int {
	return ((node-home)%g.nodes + g.nodes) % g.nodes
}

// NodeAt is the inverse of Offset: the absolute id of the node at a given
// downstream offset from home.
func (g *Geometry) NodeAt(home, offset int) int {
	return (home + offset) % g.nodes
}

// Segment returns which of the R loop segments contains downstream offset
// p (1-based: segment 1 is reached one cycle after light leaves home).
// It panics for p outside 1..Nodes-1; home itself is not in any segment.
func (g *Geometry) Segment(p int) int {
	if p < 1 || p >= g.nodes {
		panic(fmt.Sprintf("ring: segment of invalid offset %d (nodes %d)", p, g.nodes))
	}
	return (p + g.perCycle - 1) / g.perCycle
}

// FlightToHome returns the number of cycles a data flit launched at
// downstream offset p takes to reach the home node, including the E/O and
// O/E conversions that the paper folds into link traversal. The value is
// R+1-Segment(p), between 1 (the node just upstream of home) and R (the
// node just downstream of home, whose flit must travel almost the whole
// loop).
//
// This definition makes distributed token slots collision-free by
// construction: a packet grabbed from the token emitted at cycle t is
// launched at cycle t+Segment(p) and lands at cycle t+R+1 regardless of p.
func (g *Geometry) FlightToHome(p int) int {
	return g.roundTrip + 1 - g.Segment(p)
}

// HandshakeReturn returns the cycle at which a handshake pulse emitted by
// the home when a packet arrives (arrivedAt) reaches the sender at offset
// p: the pulse spends Segment(p) cycles on the home→sender arc. For a flit
// whose flight was the nominal FlightToHome this is the packet's launch
// cycle plus R+1, whatever p is (paper §IV-C: "if the round-trip time for
// the optical ring is 8 cycles, then a sender will receive the handshake
// message in 9 cycles"). The constancy is what lets each sender keep its
// handshake detector off except in that one known cycle, making 1-bit
// handshake messages feasible.
func (g *Geometry) HandshakeReturn(arrivedAt int64, p int) int64 {
	return arrivedAt + int64(g.Segment(p))
}
