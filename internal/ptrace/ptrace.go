// Package ptrace is the protocol event tap and its span assembler: it
// turns the core engine's per-packet lifecycle event stream into exact
// latency attribution. A Stream (a core.Tracer) takes every canonical
// digest event plus the tap-only arbitration-side events (head-ready,
// token capture/release, setaside entry/exit) and assembles per-packet
// span chains as the run goes, handing each one over when its packet
// completes. The phases — injection pipeline, queue, token wait, optical
// flight, handshake wait, retransmit wait, circulation, ejection — are
// gap-free, non-overlapping, and sum exactly to the packet's end-to-end
// latency, a checkable invariant on every registered scheme
// (internal/check audits it against the conservation ledger).
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

// Tap is an in-memory event sink implementing core.Tracer: it appends one
// Record per observed event, for Assemble to fold in one batch (every run
// path streams instead; the Tap feeds the benchmarks and the stream's
// equivalence tests). Attach it with core.Network.SetTracer before the
// first injection so every packet's stream starts at its birth.
type Tap struct {
	Records []Record
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
