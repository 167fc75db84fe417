package ptrace

import (
	"fmt"
	"sort"

	"photon/internal/core"
	"photon/internal/sim"
)

// Stream is the windowed counterpart of Tap + Assemble: a core.Tracer
// that assembles spans while the simulation runs and hands each span to
// a callback the moment the packet delivers, instead of retaining the
// whole event stream and the whole span set in memory. Resident state is
// bounded by the number of packets simultaneously in flight (plus a
// short tombstone window for post-delivery ACKs), so tracing a long run
// costs O(live packets), not O(total packets).
//
// The assembly grammar is byte-for-byte the one Assemble applies — both
// drive the same per-packet state machine — so a stream fed a Tap's
// records flushes exactly the spans Assemble would have built. The check
// battery pins that equivalence.
//
// One case differs, because the stream cannot take a span back. A
// recovery event (timeout, duplicate discard, packet fault) that reaches
// a packet after its delivery — the lost-ACK path: accept, deliver, then
// the sender's timer fires — makes Assemble, which sees the whole stream
// before anyone sees a span, mark the packet Faulted and drop its phases.
// The stream has already handed that span out as clean; it leaves the
// span as flushed, swallows the packet's remaining events, and holds the
// cursor until Close (as it holds every faulted cursor) without flushing
// it again. After hand-off the stream writes one field only: Setaside, an
// annotation outside the phase sum, whose closing event (the sender
// freeing the slot when the ACK returns) trails delivery.
type Stream struct {
	cfg StreamConfig

	cursors map[uint64]*pktAsm
	seen    int64 // records accepted
	last    int64 // last accepted cycle (chronology check)

	// tombs queues flushed cursors for retirement. Entries are pushed
	// under the current cycle, so at never decreases from head to tail.
	tombs *sim.Queue[tombstone]

	flushed int64 // spans handed to OnSpan
	maxLive int   // peak resident cursor count

	err    error
	closed bool
}

// StreamConfig configures a Stream. OnSpan receives every assembled span
// exactly once: delivered non-faulted spans as they deliver, everything
// else (undelivered, faulted) at Close in (Injected, ID) order. A nil
// OnSpan discards spans — useful when only the stream's validation and
// stats are wanted. OnMeta receives packet-less records (token motion,
// faults) as they happen; nil discards them. An error from either
// callback latches and stops the stream.
type StreamConfig struct {
	OnSpan func(*PacketSpan) error
	OnMeta func(Record) error

	// RetireAfter is how many cycles after its last event a delivered
	// packet's cursor lingers as a tombstone, so post-delivery ACKs still
	// find it. Zero means the default (1024) — an order of magnitude
	// beyond a loop trip on the default 64-node ring, yet small enough
	// that tombstones retire long before a run ends.
	RetireAfter int64
}

const defaultRetireAfter = 1024

// tombstone queues a flushed cursor for retirement; at is the cursor's
// last-event cycle when it was queued. An entry whose cursor has moved on
// since (a.last > at) is stale: a later entry carries the cursor.
type tombstone struct {
	a  *pktAsm
	at int64
}

// NewStream returns a streaming assembler ready to attach with
// core.Network.SetTracer or to feed via Push.
func NewStream(cfg StreamConfig) *Stream {
	if cfg.RetireAfter <= 0 {
		cfg.RetireAfter = defaultRetireAfter
	}
	return &Stream{cfg: cfg, cursors: make(map[uint64]*pktAsm), tombs: sim.NewQueue[tombstone](0)}
}

// Err returns the first error the stream hit (malformed input or a
// callback failure); once set, further input is ignored.
func (s *Stream) Err() error { return s.err }

// Flushed returns how many spans have been handed to OnSpan so far.
func (s *Stream) Flushed() int64 { return s.flushed }

// MaxLive returns the peak number of resident packet cursors — the
// memory high-water mark the windowed mode exists to bound.
func (s *Stream) MaxLive() int { return s.maxLive }

// Observe implements core.Tracer with the same value-copy contract as
// Tap.Observe; assembly errors latch into Err.
func (s *Stream) Observe(e core.Event) {
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
	_ = s.Push(r)
}

// Push feeds one record through the assembler. The first error latches:
// the stream stays safe to push to but drops everything after the fault.
func (s *Stream) Push(r Record) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		s.err = fmt.Errorf("ptrace: push into closed stream")
		return s.err
	}
	if err := s.push(r); err != nil {
		s.err = err
	}
	return s.err
}

func (s *Stream) push(r Record) error {
	if r.Cycle < 0 {
		return fmt.Errorf("ptrace: record %d: negative cycle %d", s.seen, r.Cycle)
	}
	if r.Cycle < s.last {
		return fmt.Errorf("ptrace: record %d: cycle %d before cycle %d (stream not chronological)",
			s.seen, r.Cycle, s.last)
	}
	s.last = r.Cycle
	s.seen++
	// Retire every tombstone whose last event is RetireAfter cycles old.
	// The queue is in last-event order, so only its head can be due.
	for {
		t, ok := s.tombs.Peek()
		if !ok || r.Cycle-t.at < s.cfg.RetireAfter {
			break
		}
		s.tombs.PopFront()
		if t.a.state == stDone && t.a.last == t.at {
			delete(s.cursors, t.a.span.ID)
		}
	}

	if r.Meta {
		switch r.Type {
		case core.EvTokenCapture, core.EvTokenRelease, core.EvTokenRegen, core.EvFault:
			if s.cfg.OnMeta != nil {
				if err := s.cfg.OnMeta(r); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("ptrace: record %d: meta record with packet event type %s", s.seen-1, r.Type)
		}
	}
	switch r.Type {
	case core.EvTokenCapture, core.EvTokenRelease, core.EvTokenRegen:
		return fmt.Errorf("ptrace: record %d: packet record with meta event type %s", s.seen-1, r.Type)
	}

	a := s.cursors[r.ID]
	if r.Type == core.EvInject {
		if a != nil {
			return fmt.Errorf("ptrace: record %d: packet %d injected twice", s.seen-1, r.ID)
		}
		s.cursors[r.ID] = newCursor(r)
		if n := len(s.cursors); n > s.maxLive {
			s.maxLive = n
		}
		return nil
	}
	if a == nil {
		return fmt.Errorf("ptrace: record %d: %s for packet %d before its injection", s.seen-1, r.Type, r.ID)
	}
	if r.Cycle < a.last {
		return fmt.Errorf("ptrace: record %d: packet %d time runs backwards (%d after %d)",
			s.seen-1, r.ID, r.Cycle, a.last)
	}
	touched := r.Cycle > a.last
	a.last = r.Cycle

	switch {
	case a.span.Faulted:
		// Faulted spans keep exact counters but are held until Close:
		// the recovery grammar can touch them at any point.
		a.applyFaulted(r)
		return nil
	case a.state == stAbsorbing:
		return nil
	case a.state == stDone:
		// A tombstone: the span is with the consumer.
		switch r.Type {
		case core.EvFault, core.EvTimeout, core.EvDupDrop:
			a.state = stAbsorbing
			return nil
		}
		if touched {
			// Re-queue under the later cycle; the entry already queued
			// goes stale and is skipped when it reaches the head.
			s.tombs.PushBack(tombstone{a, r.Cycle})
		}
	}
	if err := a.apply(r); err != nil {
		return fmt.Errorf("ptrace: record %d: %w", s.seen-1, err)
	}
	// Delivery completes a non-faulted span: flush it now. The cursor
	// stays behind as a tombstone so the packet's post-delivery ACK is
	// still legal, and retires RetireAfter cycles after its last event.
	if r.Type == core.EvDeliver {
		s.tombs.PushBack(tombstone{a, r.Cycle})
		return s.flush(&a.span)
	}
	return nil
}

func (s *Stream) flush(span *PacketSpan) error {
	s.flushed++
	if s.cfg.OnSpan == nil {
		return nil
	}
	return s.cfg.OnSpan(span)
}

// Close flushes every span still resident — undelivered packets with
// their phase prefix, faulted packets with their counters — in
// (Injected, ID) order, then drops all state. A latched error makes
// Close a no-op returning that error.
func (s *Stream) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return nil
	}
	s.closed = true
	var rest []*pktAsm
	for _, a := range s.cursors {
		if !a.span.Faulted && (a.state == stDone || a.state == stAbsorbing) {
			continue // flushed at delivery; cursor was only a tombstone
		}
		rest = append(rest, a)
	}
	sort.Slice(rest, func(i, j int) bool {
		si, sj := &rest[i].span, &rest[j].span
		if si.Injected != sj.Injected {
			return si.Injected < sj.Injected
		}
		return si.ID < sj.ID
	})
	for _, a := range rest {
		if err := s.flush(&a.span); err != nil {
			s.err = err
			return err
		}
	}
	s.cursors, s.tombs = nil, nil
	return nil
}
