// Package ptrace is the protocol event tap and its span assembler: it
// turns the core engine's per-packet lifecycle event stream into exact
// latency attribution. A Tap (a core.Tracer) records every canonical
// digest event plus the tap-only arbitration-side events (head-ready,
// token capture/release, setaside entry/exit); Assemble folds the stream
// into per-packet span chains whose phases — injection pipeline, queue,
// token wait, optical flight, handshake wait, retransmit wait,
// circulation, ejection — are gap-free, non-overlapping, and sum exactly
// to the packet's end-to-end latency. That algebra is a checkable
// invariant on every registered scheme (internal/check runs it as a
// battery), and the aggregate Attribution replaces the approximate
// latency breakdown the experiment drivers previously derived from
// whole-run averages.
//
// The package is named ptrace (protocol trace) to keep it distinct from
// internal/trace, which holds application workload traces.
package ptrace

import "photon/internal/core"

// Record is one observed protocol event, copied out of the engine's
// mutable state at emission time. Meta records (token motion, token
// regeneration, packet-less faults) carry their payload in Aux; packet
// records identify the packet and, for delivery events, its final
// DeliveredAt timestamp (the delivery event fires at the ejection cycle,
// EjectLatency before the packet is handed to the core).
type Record struct {
	Cycle    int64
	Type     core.EventType
	Meta     bool // packet-less event; Aux holds the payload
	Measured bool // packet was injected inside the measurement window

	ID       uint64 // packet id (packet records only)
	Src, Dst int32  // packet endpoints (packet records only)

	Aux         uint64 // meta payload (fault class/element, token node/home)
	DeliveredAt int64  // EvDeliver only: final delivery cycle; -1 otherwise
}

// Tap is an in-memory event sink implementing core.Tracer. It appends one
// Record per observed event; attach it with core.Network.SetTracer (or
// Collect) before the first injection so every packet's stream starts at
// its birth.
type Tap struct {
	Records []Record
}

// NewTap returns an empty tap.
func NewTap() *Tap { return &Tap{} }

// Collect attaches a fresh tap to the network and returns it.
func Collect(net *core.Network) *Tap {
	t := NewTap()
	net.SetTracer(t)
	return t
}

// Observe implements core.Tracer: it copies the event into a Record.
func (t *Tap) Observe(e core.Event) {
	t.Records = append(t.Records, recordOf(e))
}

// recordOf copies an event out of the engine. The engine keeps mutating
// the packet after Observe returns, so everything the assembler needs is
// captured by value here.
func recordOf(e core.Event) Record {
	r := Record{Cycle: e.Cycle, Type: e.Type, Aux: e.Aux, DeliveredAt: -1}
	if p := e.Packet; p != nil {
		r.ID = p.ID
		r.Src, r.Dst = int32(p.Src), int32(p.Dst)
		r.Measured = p.Measured
		if e.Type == core.EvDeliver {
			r.DeliveredAt = p.DeliveredAt
		}
	} else {
		r.Meta = true
	}
	return r
}

// Assemble folds the tap's recorded stream into per-packet spans.
func (t *Tap) Assemble() (*TraceResult, error) {
	return Assemble(t.Records)
}
