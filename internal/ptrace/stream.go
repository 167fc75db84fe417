package ptrace

import (
	"fmt"
	"sort"

	"photon/internal/core"
	"photon/internal/sim"
)

// Stream is the windowed counterpart of Tap + Assemble: a core.Tracer
// that assembles spans while the simulation runs and hands each span to
// a callback the moment the packet completes, instead of retaining the
// whole event stream and the whole span set in memory. Resident state is
// bounded by the number of packets simultaneously in flight (plus a
// short tombstone window for post-delivery ACKs), so tracing a long run
// costs O(live packets), not O(total packets).
//
// The assembly grammar is byte-for-byte the one Assemble applies — both
// admit records through the same intake and drive the same per-packet
// state machine — so a stream fed a Tap's records flushes exactly the
// spans Assemble would have built. The check battery pins that
// equivalence.
//
// A span is complete, and flushed, when the packet has delivered and no
// setaside residency is open: at delivery on most schemes, and on the
// setaside schemes at the EvSetasideExit that trails it (the sender frees
// the slot when the ACK returns). The *PacketSpan given to OnSpan is valid
// for the duration of the call — its buffer goes to the next injected
// packet — so a consumer that keeps a span copies it, Phases included.
//
// One case therefore differs from batch, because the stream cannot take a
// span back. A recovery event (timeout, duplicate discard, packet fault)
// that reaches a packet after its delivery — the lost-ACK path: accept,
// deliver, then the sender's timer fires — makes Assemble, which sees the
// whole stream before anyone sees a span, mark the packet Faulted and
// drop its phases. If the stream still holds the span (its setaside slot
// not yet released) it does exactly the same; if it has already handed
// the span out as clean, it leaves the span as flushed, swallows the
// packet's remaining events, and holds the cursor until Close (as it
// holds every faulted cursor) without flushing it again.
type Stream struct {
	cfg StreamConfig

	intake

	// tombs queues flushed cursors for retirement. Entries are pushed
	// under the current cycle, so at never decreases from head to tail.
	tombs *sim.Queue[tombstone]

	flushed int64 // spans handed to OnSpan
	maxLive int   // peak resident cursor count

	err    error
	closed bool
}

// StreamConfig configures a Stream. OnSpan receives every assembled span
// exactly once: delivered non-faulted spans as they complete, everything
// else (undelivered, faulted, setaside slot never released) at Close in
// (Injected, ID) order. A nil OnSpan discards spans — useful when only
// the stream's validation and stats are wanted. OnMeta receives
// packet-less records (token motion, faults) as they happen; nil discards
// them. An error from either callback latches and stops the stream.
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

// tombstone queues a flushed cursor for retirement, by id because the
// table moves cursors when it grows; at is the cursor's last-event cycle
// when it was queued. An entry whose cursor has moved on since (last > at)
// is stale: a later entry carries the cursor.
type tombstone struct {
	id uint64
	at int64
}

// NewStream returns a streaming assembler ready to attach with
// core.Network.SetTracer or to feed via Push.
func NewStream(cfg StreamConfig) *Stream {
	if cfg.RetireAfter <= 0 {
		cfg.RetireAfter = defaultRetireAfter
	}
	return &Stream{cfg: cfg, tombs: sim.NewQueue[tombstone](0)}
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
	if s.ready() {
		r := recordOf(e)
		s.err = s.push(&r)
	}
}

// Push feeds one record through the assembler. The first error latches:
// the stream stays safe to push to but drops everything after the fault.
func (s *Stream) Push(r Record) error {
	if s.ready() {
		s.err = s.push(&r)
	}
	return s.err
}

// ready reports whether the stream still takes input, latching the error
// of a push into a closed stream.
func (s *Stream) ready() bool {
	if s.err == nil && s.closed {
		s.err = fmt.Errorf("ptrace: push into closed stream")
	}
	return s.err == nil
}

func (s *Stream) push(r *Record) error {
	// Retire every tombstone whose last event is RetireAfter cycles old.
	// The queue is in last-event order, so only its head can be due.
	for {
		t, ok := s.tombs.Peek()
		if !ok || r.Cycle-t.at < s.cfg.RetireAfter {
			break
		}
		s.tombs.PopFront()
		if a := s.cursors.get(t.id); a != nil && a.state == stDone && a.last == t.at {
			s.cursors.delete(t.id)
		}
	}

	a, err := s.admit(r)
	switch {
	case err != nil:
		return err
	case a == nil:
		if s.cfg.OnMeta != nil {
			return s.cfg.OnMeta(*r)
		}
		return nil
	case r.Type == core.EvInject:
		if n := s.cursors.count(); n > s.maxLive {
			s.maxLive = n
		}
		return nil
	}
	touched := r.Cycle > a.last
	a.last = r.Cycle

	switch {
	case a.faulted:
		// Faulted spans keep exact counters but are held until Close:
		// the recovery grammar can touch them at any point.
		a.applyFaulted(r)
		return nil
	case a.state == stAbsorbing:
		return nil
	case a.flushed:
		// A tombstone: the span is with the consumer.
		switch r.Type {
		case core.EvFault, core.EvTimeout, core.EvDupDrop:
			a.state = stAbsorbing
			return nil
		}
		if touched {
			// Re-queue under the later cycle; the entry already queued
			// goes stale and is skipped when it reaches the head.
			s.tombs.PushBack(tombstone{a.id, r.Cycle})
		}
	}
	if err := a.apply(r); err != nil {
		return fmt.Errorf("ptrace: record %d: %w", s.seen-1, err)
	}
	// Delivered, not faulted, setaside slot released: the span is complete.
	// The cursor stays behind as a tombstone so the packet's later ACK is
	// still legal, and retires RetireAfter cycles after its last event.
	if a.state == stDone && !a.flushed && a.setasideAt < 0 && !a.faulted {
		a.flushed = true
		s.tombs.PushBack(tombstone{a.id, r.Cycle})
		return s.flush(a)
	}
	return nil
}

// flush hands a's span to the consumer and takes the buffer back.
func (s *Stream) flush(a *pktAsm) error {
	s.flushed++
	var err error
	if s.cfg.OnSpan != nil {
		err = s.cfg.OnSpan(&a.buf.span)
	}
	s.cursors.recycle(a)
	return err
}

// Close flushes every span still resident — undelivered packets with
// their phase prefix, faulted packets with their counters, delivered
// packets whose setaside slot was never released — in (Injected, ID)
// order, then drops all state. A latched error makes Close a no-op
// returning that error.
func (s *Stream) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return nil
	}
	s.closed = true
	var rest []*pktAsm
	s.cursors.each(func(a *pktAsm) {
		if !a.flushed {
			rest = append(rest, a)
		}
	})
	sort.Slice(rest, func(i, j int) bool {
		si, sj := &rest[i].buf.span, &rest[j].buf.span
		if si.Injected != sj.Injected {
			return si.Injected < sj.Injected
		}
		return si.ID < sj.ID
	})
	for _, a := range rest {
		if err := s.flush(a); err != nil {
			s.err = err
			return err
		}
	}
	s.cursors, s.tombs = cursorTable{}, nil
	return nil
}
