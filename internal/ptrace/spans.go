package ptrace

import (
	"fmt"

	"photon/internal/core"
)

// PhaseKind labels one latency phase of a packet's span chain. The phases
// partition a delivered packet's end-to-end latency exactly: consecutive
// phases share their boundary cycle, and the lengths sum to
// DeliveredAt - CreatedAt with no gap and no overlap.
type PhaseKind uint8

const (
	// PhasePipeline: electrical injection pipeline, creation to output
	// queue (for node-local traffic: creation to local delivery).
	PhasePipeline PhaseKind = iota
	// PhaseQueue: waiting in the output queue behind other packets,
	// enqueue to head-eligibility.
	PhaseQueue
	// PhaseTokenWait: head-eligible to first launch — the arbitration
	// (token waiting) time the paper's handshake schemes attack.
	PhaseTokenWait
	// PhaseFlight: on the optical data channel, launch to arrival at the
	// home node (every launch attempt contributes one flight phase).
	PhaseFlight
	// PhaseHandshakeWait: from a receiver drop to the NACK pulse reaching
	// the sender (handshake schemes only).
	PhaseHandshakeWait
	// PhaseRetxWait: from the NACK's arrival to the retransmission's
	// launch — re-arbitration time spent parked in a setaside slot
	// (Setaside policy) or pinned at the queue head (HoldHead).
	PhaseRetxWait
	// PhaseCirculation: extra loop trips taken at the receiver instead of
	// dropping (DHS with circulation), arrival to arrival.
	PhaseCirculation
	// PhaseEject: buffered at the home node and ejecting, acceptance to
	// final delivery (includes the electrical ejection latency).
	PhaseEject

	// NumPhases is the number of phase kinds.
	NumPhases = int(PhaseEject) + 1
)

func (k PhaseKind) String() string {
	switch k {
	case PhasePipeline:
		return "pipeline"
	case PhaseQueue:
		return "queue"
	case PhaseTokenWait:
		return "token-wait"
	case PhaseFlight:
		return "flight"
	case PhaseHandshakeWait:
		return "handshake-wait"
	case PhaseRetxWait:
		return "retx-wait"
	case PhaseCirculation:
		return "circulation"
	case PhaseEject:
		return "eject"
	default:
		return "phase?"
	}
}

// Phase is one half-open latency interval [From, To) of a span chain; a
// zero-length phase (From == To) records a stage the packet crossed
// within a single cycle (e.g. a NACKed packet relaunching the cycle its
// NACK arrived).
type Phase struct {
	Kind     PhaseKind
	From, To int64
}

// Len returns the phase length in cycles.
func (p Phase) Len() int64 { return p.To - p.From }

// PacketSpan is one packet's assembled lifecycle: its phase chain plus
// the attempt counters the conservation ledgers cross-check.
type PacketSpan struct {
	ID       uint64
	Src, Dst int
	Measured bool
	Local    bool // delivered node-locally, never entered the ring

	Injected  int64 // creation cycle
	Delivered int64 // final delivery cycle; -1 while undelivered

	// Phases is the gap-free chain; for a delivered packet the lengths
	// sum exactly to Delivered - Injected.
	Phases []Phase

	Launches     int // launch attempts (retransmissions included)
	Drops        int // receiver NACK-drops experienced
	Circulations int // extra receiver loop trips

	// Setaside is the packet's setaside-slot residency in cycles. It
	// overlaps the flight/handshake phases (the slot is occupied while
	// the packet flies and awaits its answer), so it annotates the span
	// rather than joining the phase sum.
	Setaside int64

	// Faulted marks a packet touched by fault injection or recovery
	// (destroyed copy, timeout retransmission, duplicate discard). Its
	// counters stay exact but its phase chain is not reconstructed —
	// exact attribution is defined over fault-free protocol behaviour.
	Faulted bool
}

// Latency returns end-to-end latency; -1 while undelivered.
func (s *PacketSpan) Latency() int64 {
	if s.Delivered < 0 {
		return -1
	}
	return s.Delivered - s.Injected
}

// PhaseSum returns the total length of the span's phase chain.
func (s *PacketSpan) PhaseSum() int64 {
	var sum int64
	for _, p := range s.Phases {
		sum += p.Len()
	}
	return sum
}

// Validate checks the span-chain invariants independently of how the
// chain was built: chronological, gap-free, non-overlapping phases
// starting at the injection cycle, and — for a delivered, non-faulted
// packet — a phase sum exactly equal to the end-to-end latency.
func (s *PacketSpan) Validate() error {
	if s.Faulted {
		return nil // phases are not reconstructed under fault injection
	}
	at := s.Injected
	for i, p := range s.Phases {
		if p.From != at {
			return fmt.Errorf("ptrace: packet %d phase %d (%s) starts at %d, chain is at %d (gap or overlap)",
				s.ID, i, p.Kind, p.From, at)
		}
		if p.To < p.From {
			return fmt.Errorf("ptrace: packet %d phase %d (%s) runs backwards [%d,%d)", s.ID, i, p.Kind, p.From, p.To)
		}
		at = p.To
	}
	if s.Delivered >= 0 {
		if at != s.Delivered {
			return fmt.Errorf("ptrace: packet %d chain ends at %d, delivered at %d", s.ID, at, s.Delivered)
		}
		if got, want := s.PhaseSum(), s.Latency(); got != want {
			return fmt.Errorf("ptrace: packet %d phase sum %d != latency %d", s.ID, got, want)
		}
	}
	return nil
}

// TraceResult is an assembled event stream: per-packet spans in injection
// order plus the packet-less meta records (token motion, faults).
type TraceResult struct {
	Spans  []*PacketSpan
	Tokens []Record // EvTokenCapture / EvTokenRelease / EvTokenRegen
	Faults []Record // packet-less EvFault records
}

// assembly states of one packet. The zero state marks a free slot of the
// cursor table.
const (
	stFree     = iota
	stInjected // created, in the electrical injection pipeline
	stEnqueued // in the output queue, not yet head-eligible
	stReady    // head-eligible, awaiting arbitration
	stFlight   // on the data waveguide
	stDropped  // dropped at the home, NACK in flight
	stNacked   // NACK received, awaiting retransmission
	stCirc     // reinjected, circulating for another loop
	stBuffered // accepted into the home input buffer
	stDone     // delivered
	// stAbsorbing is reached only in a Stream: the span was handed to the
	// consumer and a recovery event touched the packet afterwards. The
	// cursor swallows the rest of the packet's events.
	stAbsorbing
)

func stateName(st uint8) string {
	switch st {
	case stInjected:
		return "injected"
	case stEnqueued:
		return "enqueued"
	case stReady:
		return "ready"
	case stFlight:
		return "in-flight"
	case stDropped:
		return "dropped"
	case stNacked:
		return "nacked"
	case stCirc:
		return "circulating"
	case stBuffered:
		return "buffered"
	case stDone:
		return "delivered"
	case stAbsorbing:
		return "absorbing"
	default:
		return "state?"
	}
}

// inlinePhases is the phase capacity a span buffer carries inline: the
// common chain pipeline→queue→token-wait→flight→eject. Longer chains
// (NACK retries, circulation loops) spill to the heap through append.
const inlinePhases = 5

// pktAsm is the per-packet assembly cursor: the 56-byte header every
// record of the packet touches. It lives by value in the cursor table and
// carries what a span needs before it has a buffer: identity, endpoints,
// and — until the buffer is taken — the injection cycle in mark and the
// enqueue cycle in last. The span being assembled sits behind buf. A
// Stream takes the buffer at the packet's first record past EvEnqueue
// (see take), so a packet waiting in its output queue costs the header
// alone, and gives it back when the span goes to the consumer; from then
// on the cursor is header only until its EvRetire — a trailing ACK, a late
// recovery event and the impossible-transition messages need just state,
// last and id.
type pktAsm struct {
	id         uint64
	buf        *spanBuf // nil before take and once flushed
	mark       int64    // cycle anchoring the currently open phase
	last       int64    // cycle of the packet's previous event
	setasideAt int64    // open setaside residency start, or -1
	src, dst   int32
	state      uint8
	measured   bool
	retired    bool // EvRetire seen: no record of the packet may follow
	flushed    bool // Stream only: the span has been handed to OnSpan
	faulted    bool // buf.span.Faulted, without the dereference
}

// injected returns the packet's creation cycle: mark holds it until the
// span buffer is taken.
func (a *pktAsm) injected() int64 {
	if a.buf != nil {
		return a.buf.span.Injected
	}
	return a.mark
}

// intake is the record-admission prologue Assemble and Stream share: the
// stream-level checks every record passes before it reaches a packet's
// state machine, and the cursor table they are checked against.
type intake struct {
	cursors cursorTable
	seen    int64 // records admitted
	last    int64 // cycle of the last admitted record
}

// admit checks r against the stream so far — cycle non-negative and not
// before its predecessor's, event type matching its kind, its packet's
// history — and returns the packet's cursor: nil for a meta record, a
// freshly opened one for EvInject, one marked retired for EvRetire. The
// caller advances a.last.
func (in *intake) admit(r *Record) (*pktAsm, error) {
	i := in.seen
	if r.Cycle < 0 {
		return nil, fmt.Errorf("ptrace: record %d: negative cycle %d", i, r.Cycle)
	}
	if r.Cycle < in.last {
		return nil, fmt.Errorf("ptrace: record %d: cycle %d before cycle %d (stream not chronological)",
			i, r.Cycle, in.last)
	}
	in.last = r.Cycle
	in.seen++
	if r.Meta {
		switch r.Type {
		case core.EvTokenCapture, core.EvTokenRelease, core.EvTokenRegen, core.EvFault:
			return nil, nil
		}
		return nil, fmt.Errorf("ptrace: record %d: meta record with packet event type %s", i, r.Type)
	}
	switch r.Type {
	case core.EvTokenCapture, core.EvTokenRelease, core.EvTokenRegen:
		return nil, fmt.Errorf("ptrace: record %d: packet record with meta event type %s", i, r.Type)
	}
	a := in.cursors.get(r.ID)
	if r.Type == core.EvInject {
		if a != nil {
			return nil, fmt.Errorf("ptrace: record %d: packet %d injected twice", i, r.ID)
		}
		return in.open(r), nil
	}
	if a == nil {
		return nil, fmt.Errorf("ptrace: record %d: %s for packet %d before its injection", i, r.Type, r.ID)
	}
	if a.retired {
		return nil, fmt.Errorf("ptrace: record %d: %s for packet %d after its retirement", i, r.Type, r.ID)
	}
	if r.Cycle < a.last {
		return nil, fmt.Errorf("ptrace: record %d: packet %d time runs backwards (%d after %d)",
			i, r.ID, r.Cycle, a.last)
	}
	if r.Type == core.EvRetire {
		a.retired = true
	}
	return a, nil
}

// open opens the cursor of the packet an EvInject record announces. The
// span buffer comes later, from take.
func (in *intake) open(r *Record) *pktAsm {
	a := in.cursors.open(r.ID)
	a.src, a.dst, a.measured = r.Src, r.Dst, r.Measured
	a.mark, a.last, a.setasideAt = r.Cycle, r.Cycle, -1
	return a
}

// take gives a its span buffer and writes the span its header describes:
// identity, creation cycle and, for a packet already in its output queue,
// the pipeline phase up to its enqueue cycle.
func (in *intake) take(a *pktAsm) {
	b := in.cursors.newBuf()
	b.span = PacketSpan{
		ID: a.id, Src: int(a.src), Dst: int(a.dst),
		Measured: a.measured,
		Injected: a.mark, Delivered: -1,
	}
	a.buf = b
	if a.state == stEnqueued {
		a.phase(PhasePipeline, a.last)
	}
}

// Assemble folds an event stream into per-packet spans. The stream must
// be chronologically ordered (as a Tap records it); a malformed or
// truncated stream — an event before its packet's injection or after its
// EvRetire, an impossible state transition, time running backwards —
// returns an
// error and never panics, so the assembler is safe on untrusted input
// (it is fuzzed on exactly that contract). Packets touched by fault
// injection are marked Faulted and kept with exact counters but without
// a reconstructed phase chain; truncated streams yield undelivered
// spans, which carry their phase prefix.
func Assemble(records []Record) (*TraceResult, error) {
	tr := &TraceResult{}
	var in intake
	for i := range records {
		r := &records[i]
		a, err := in.admit(r)
		switch {
		case err != nil:
			return nil, err
		case a == nil:
			if r.Type == core.EvFault {
				tr.Faults = append(tr.Faults, *r)
			} else {
				tr.Tokens = append(tr.Tokens, *r)
			}
		case r.Type == core.EvInject:
			in.take(a)
			tr.Spans = append(tr.Spans, &a.buf.span)
		case r.Type == core.EvRetire:
			// Nothing of the packet may follow; admit has marked it.
		default:
			a.last = r.Cycle
			if a.faulted {
				a.applyFaulted(r)
			} else if err := a.apply(r); err != nil {
				return nil, fmt.Errorf("ptrace: record %d: %w", i, err)
			}
		}
	}
	return tr, nil
}

// phase closes the open interval [mark, to) as kind and re-anchors at to.
// Phases stays nil until the first phase closes, as it is for a span
// that never left the pipeline.
func (a *pktAsm) phase(kind PhaseKind, to int64) {
	b := a.buf
	if b.span.Phases == nil {
		b.span.Phases = b.inline[:0]
	}
	b.span.Phases = append(b.span.Phases, Phase{Kind: kind, From: a.mark, To: to})
	a.mark = to
}

// badState reports an impossible transition.
func (a *pktAsm) badState(t core.EventType) error {
	return fmt.Errorf("%s for %s packet %d", t, stateName(a.state), a.id)
}

// apply advances the packet's state machine by one event (strict,
// fault-free grammar). A cursor without a span buffer — a Stream's before
// the packet leaves its queue, and once flushed — meets only the cases
// that check the state before they reach for a.buf: EvEnqueue, which then
// leaves the pipeline phase for take to close, and on a flushed cursor,
// where no event is legal but the ACK, which writes nothing.
func (a *pktAsm) apply(r *Record) error {
	switch r.Type {
	case core.EvEnqueue:
		if a.state != stInjected {
			return a.badState(r.Type)
		}
		if a.buf != nil {
			a.phase(PhasePipeline, r.Cycle)
		}
		a.state = stEnqueued

	case core.EvHeadReady:
		if a.state != stEnqueued {
			return a.badState(r.Type)
		}
		a.phase(PhaseQueue, r.Cycle)
		a.state = stReady

	case core.EvLaunch:
		switch a.state {
		case stReady:
			a.phase(PhaseTokenWait, r.Cycle)
		case stNacked:
			a.phase(PhaseRetxWait, r.Cycle)
		default:
			return a.badState(r.Type)
		}
		a.state = stFlight
		a.buf.span.Launches++

	case core.EvSetasideEnter:
		if a.state != stFlight || a.setasideAt >= 0 {
			return a.badState(r.Type)
		}
		a.setasideAt = r.Cycle

	case core.EvSetasideExit:
		if a.setasideAt < 0 {
			return a.badState(r.Type)
		}
		a.buf.span.Setaside += r.Cycle - a.setasideAt
		a.setasideAt = -1

	case core.EvAccept:
		switch a.state {
		case stFlight:
			a.phase(PhaseFlight, r.Cycle)
		case stCirc:
			a.phase(PhaseCirculation, r.Cycle)
		default:
			return a.badState(r.Type)
		}
		a.state = stBuffered

	case core.EvReinject:
		switch a.state {
		case stFlight:
			a.phase(PhaseFlight, r.Cycle)
		case stCirc:
			a.phase(PhaseCirculation, r.Cycle)
		default:
			return a.badState(r.Type)
		}
		a.state = stCirc
		a.buf.span.Circulations++

	case core.EvDrop:
		if a.state != stFlight {
			return a.badState(r.Type)
		}
		a.phase(PhaseFlight, r.Cycle)
		a.state = stDropped
		a.buf.span.Drops++

	case core.EvNack:
		if a.state != stDropped {
			return a.badState(r.Type)
		}
		a.phase(PhaseHandshakeWait, r.Cycle)
		a.state = stNacked

	case core.EvAck:
		// The ACK of an accepted packet reaching the sender: it releases
		// retention state but adds nothing to this packet's latency (it
		// may arrive before or after the delivery itself).
		if a.state != stBuffered && a.state != stDone {
			return a.badState(r.Type)
		}

	case core.EvDeliver:
		if r.DeliveredAt < r.Cycle {
			return fmt.Errorf("packet %d delivered at %d before its delivery event at %d",
				a.id, r.DeliveredAt, r.Cycle)
		}
		switch a.state {
		case stInjected:
			// Node-local traffic: delivered straight out of the router
			// pipeline, no queue, no ring.
			a.phase(PhasePipeline, r.Cycle)
			a.phase(PhaseEject, r.DeliveredAt)
			a.buf.span.Local = true
		case stBuffered:
			a.phase(PhaseEject, r.DeliveredAt)
		default:
			return a.badState(r.Type)
		}
		a.state = stDone
		a.buf.span.Delivered = r.DeliveredAt

	case core.EvFault, core.EvTimeout, core.EvDupDrop:
		// Fault injection touched this packet: keep counting, stop
		// reconstructing phases. (A Stream keeps these away from a
		// flushed cursor.)
		a.faulted = true
		a.buf.span.Faulted = true
		a.buf.span.Phases = nil

	default:
		return fmt.Errorf("unknown event type %d for packet %d", int(r.Type), a.id)
	}
	return nil
}

// applyFaulted keeps a faulted packet's ledger-facing counters exact
// without attempting phase reconstruction: the recovery grammar (timeout
// copies, duplicate arrivals, destroyed flits) is deliberately out of
// scope for exact attribution.
func (a *pktAsm) applyFaulted(r *Record) {
	s := &a.buf.span
	switch r.Type {
	case core.EvLaunch:
		s.Launches++
	case core.EvDrop:
		s.Drops++
	case core.EvReinject:
		s.Circulations++
	case core.EvDeliver:
		if r.DeliveredAt >= 0 && s.Delivered < 0 {
			s.Delivered = r.DeliveredAt
		}
		a.state = stDone
	}
}

// Attribution is the aggregate of a trace's delivered, non-faulted spans:
// total cycles by phase, plus the counters the conservation ledgers
// cross-check. Averages over the aggregated population reproduce the
// run's measured latency statistics exactly.
type Attribution struct {
	Spans int64 // delivered spans aggregated
	Local int64 // of which node-local

	Phases   [NumPhases]int64 // total cycles by phase
	Total    int64            // total end-to-end cycles
	Setaside int64            // total setaside residency (overlapping)

	Launches, Drops, Circulations int64
}

// AddSpan folds one span into the aggregate, returning whether it was
// counted (undelivered, faulted, and — with measuredOnly — warmup/drain
// spans are skipped). It is the incremental half of Aggregate, so a
// streaming consumer can attribute latency span-by-span without ever
// holding the full trace.
func (a *Attribution) AddSpan(s *PacketSpan, measuredOnly bool) bool {
	if s.Delivered < 0 || s.Faulted || (measuredOnly && !s.Measured) {
		return false
	}
	a.Spans++
	if s.Local {
		a.Local++
	}
	for _, p := range s.Phases {
		a.Phases[p.Kind] += p.Len()
	}
	a.Total += s.Latency()
	a.Setaside += s.Setaside
	a.Launches += int64(s.Launches)
	a.Drops += int64(s.Drops)
	a.Circulations += int64(s.Circulations)
	return true
}

// Aggregate sums a trace's delivered, non-faulted spans. With
// measuredOnly set it covers exactly the population behind the run's
// latency statistics: packets injected inside the measurement window.
func Aggregate(tr *TraceResult, measuredOnly bool) Attribution {
	var a Attribution
	for _, s := range tr.Spans {
		a.AddSpan(s, measuredOnly)
	}
	return a
}

// AvgPhase returns the phase's mean cycles over all aggregated spans.
func (a Attribution) AvgPhase(k PhaseKind) float64 {
	if a.Spans == 0 {
		return 0
	}
	return float64(a.Phases[k]) / float64(a.Spans)
}

// AvgTotal returns mean end-to-end latency over all aggregated spans.
func (a Attribution) AvgTotal() float64 {
	if a.Spans == 0 {
		return 0
	}
	return float64(a.Total) / float64(a.Spans)
}
