package ptrace

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"photon/internal/core"
)

// Stream is the windowed counterpart of Tap + Assemble: a core.Tracer
// that assembles spans while the simulation runs and hands each span to
// a callback the moment the packet completes, instead of retaining the
// whole event stream and the whole span set in memory. Resident state is
// exactly the engine's live packets: a cursor opens at EvInject and is
// deleted at the packet's EvRetire (the engine's last release of it) once
// its span has been handed over, so tracing a long run costs O(live
// packets), not O(total packets). A cursor whose span has not been handed
// over at its retirement — a rejected, lost or faulted packet, or one
// whose setaside slot was never released — is held until Close.
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
// for the duration of the call — its buffer goes to the next packet to
// leave its queue — so a consumer that keeps a span copies it, Phases
// included.
//
// Two cases therefore differ from batch. First, the stream cannot take a
// span back. A recovery event (timeout, duplicate discard, packet fault)
// that reaches a packet after its delivery — the lost-ACK path: accept,
// deliver, then the sender's timer fires — makes Assemble, which sees the
// whole stream before anyone sees a span, mark the packet Faulted and
// drop its phases. If the stream still holds the span (its setaside slot
// not yet released) it does exactly the same; if it has already handed
// the span out as clean, it leaves the span as flushed and swallows the
// packet's remaining events without flushing it again. Second, the stream
// forgets a flushed packet at its retirement, so an EvInject that reuses
// its id opens a new packet where Assemble rejects the id as injected
// twice. The engine never reuses an id.
//
// Attached as a tracer, the stream is a pipeline of two goroutines.
// Observe only copies the record into a batch; a full batch goes to an
// assembler goroutine, which runs the state machine over it while the
// simulation fills the next. OnSpan and OnMeta therefore run on the
// assembler goroutine, in record order, at most one batch behind the
// simulation; state they capture is the caller's to read after Close.
// Push, the accessors and Close first bring the assembler up to date, so
// each returns exactly what it would had every record been assembled the
// moment it was observed. A run that may panic defers Abort, so that no
// callback outlives it. A Stream is driven by one goroutine at a time; on
// one processor the two goroutines take turns, the assembler running
// while the producer waits at its next hand-off.
type Stream struct {
	// feed is the producer's side: Observe, Push, the accessors and Close
	// write it, the assembler never does. The padding keeps it off the
	// cache lines of everything the assembler writes below.
	feed feed
	_    [feedPad]byte

	cfg StreamConfig

	intake

	flushed int64 // spans handed to OnSpan
	maxLive int   // peak resident cursor count

	err      error
	panicked *callbackPanic // recovered on the assembler goroutine
}

// feedPad is the gap between the producer's fields and the assembler's:
// two cache lines, because the adjacent-line prefetcher pairs lines.
const feedPad = 128

// batchLen is how many records Observe collects before it hands them to
// the assembler. Smaller batches pay the hand-off more often; larger ones
// make the callbacks later and the buffers bigger.
const batchLen = 4096

// batch is one batch buffer. Close and Abort return a stream's two to the
// batches pool, so a run of many short streams reuses them.
type batch = [batchLen]Record

var batches = sync.Pool{New: func() any { return new(batch) }}

// feed is the producer's hand-off state. fill is the batch Observe copies
// records into; spare is the other buffer, with the assembler while busy.
// At most one batch is in flight, so the producer runs at most one batch
// ahead of the callbacks.
type feed struct {
	fill, spare []Record      // batchLen long once armed; nil before and after
	n           int           // records in fill
	busy        bool          // spare is being assembled
	closed      bool          // Close or Abort has run
	done        chan struct{} // the assembler's "batch finished"
}

// StreamConfig configures a Stream. OnSpan receives every assembled span
// exactly once: delivered non-faulted spans as they complete, everything
// else (undelivered, faulted, setaside slot never released) at Close in
// (Injected, ID) order. A nil OnSpan discards spans — useful when only
// the stream's validation and stats are wanted. OnMeta receives
// packet-less records (token motion, faults) as they happen; nil discards
// them. An error from either callback latches and stops the stream.
// Both callbacks may run on the stream's assembler goroutine rather than
// the caller's (see Stream), in record order and one call at a time; what
// they capture is safe to read once Close has returned.
type StreamConfig struct {
	OnSpan func(*PacketSpan) error
	OnMeta func(Record) error
}

// NewStream returns a streaming assembler ready to attach with
// core.Network.SetTracer or to feed via Push.
func NewStream(cfg StreamConfig) *Stream {
	return &Stream{
		cfg:  cfg,
		feed: feed{done: make(chan struct{}, 1)},
	}
}

// Flushed returns how many spans have been handed to OnSpan so far.
func (s *Stream) Flushed() int64 {
	s.drain()
	return s.flushed
}

// MaxLive returns the peak number of resident packet cursors — the
// memory high-water mark: the engine's live packets plus those retired
// before their span could go to the consumer.
func (s *Stream) MaxLive() int {
	s.drain()
	return s.maxLive
}

// Observe implements core.Tracer with the same value-copy contract as
// Tap.Observe: it copies the event into the batch being filled, and hands
// a full batch to the assembler. Assembly errors latch into Err.
func (s *Stream) Observe(e core.Event) {
	if f := &s.feed; f.n < len(f.fill) {
		f.fill[f.n] = recordOf(e)
		f.n++
		return
	}
	s.turn(e)
}

// turn is Observe's slow path: the batch is full, or the stream has no
// buffers yet (before the first record) or any more (after Close).
func (s *Stream) turn(e core.Event) {
	f := &s.feed
	if f.closed {
		s.ready()
		return
	}
	if f.fill == nil {
		f.fill = batches.Get().(*batch)[:]
	} else {
		s.handoff()
	}
	f.fill[0] = recordOf(e)
	f.n = 1
}

// handoff passes the full batch to the assembler once the previous one is
// done, and takes that one's buffer to fill next.
func (s *Stream) handoff() {
	f := &s.feed
	s.wait()
	if f.spare == nil {
		f.spare = batches.Get().(*batch)[:]
	}
	full := f.fill[:f.n]
	f.fill, f.spare, f.n, f.busy = f.spare, f.fill, 0, true
	go s.assembleAsync(full)
}

// assembleAsync is the assembler goroutine of one batch. A callback panic
// is caught here, with the stack it was raised on, and raised again on the
// producer by wait, where the caller can recover it.
func (s *Stream) assembleAsync(b []Record) {
	defer func() {
		if v := recover(); v != nil {
			s.panicked = &callbackPanic{v, debug.Stack()}
		}
		s.feed.done <- struct{}{}
	}()
	s.assemble(b)
}

// callbackPanic is a callback's panic as the producer sees it: the value
// and the assembler goroutine's stack at the panic. It is both the value
// wait panics with and the error the stream latches.
type callbackPanic struct {
	value any
	stack []byte
}

func (p *callbackPanic) Error() string {
	return fmt.Sprintf("ptrace: stream callback panicked: %v\n\nassembler goroutine stack:\n%s", p.value, p.stack)
}

// settle waits for the batch in flight, if any, and returns the panic of
// a callback it ran, latched as the stream's error.
func (s *Stream) settle() *callbackPanic {
	f := &s.feed
	if !f.busy {
		return nil
	}
	<-f.done
	f.busy = false
	p := s.panicked
	if p != nil {
		s.panicked = nil
		s.err = p
	}
	return p
}

// wait is settle on the producer's own path: a callback's panic is raised
// again here.
func (s *Stream) wait() {
	if p := s.settle(); p != nil {
		panic(p)
	}
}

// assemble runs the records of a batch through the assembler in order,
// until an error latches.
func (s *Stream) assemble(b []Record) {
	for i := range b {
		if s.err != nil {
			return
		}
		s.err = s.push(&b[i])
	}
}

// drain waits for the batch in flight and assembles the partial one, so
// every record observed so far has been through the assembler and every
// callback it causes has returned. The accessors, Push and Close drain
// first.
func (s *Stream) drain() {
	s.wait()
	if f := &s.feed; f.n > 0 {
		s.assemble(f.fill[:f.n])
		f.n = 0
	}
}

// Push feeds one record through the assembler on the caller's goroutine,
// after every record observed before it. The first error latches: the
// stream stays safe to push to but drops everything after the fault.
func (s *Stream) Push(r Record) error {
	s.drain()
	if s.ready() {
		s.err = s.push(&r)
	}
	return s.err
}

// ready reports whether the stream still takes input, latching the error
// of a push into a closed stream.
func (s *Stream) ready() bool {
	if s.err == nil && s.feed.closed {
		s.err = fmt.Errorf("ptrace: push into closed stream")
	}
	return s.err == nil
}

func (s *Stream) push(r *Record) error {
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
	case r.Type == core.EvRetire:
		// The packet is gone from the engine. A span already with the
		// consumer needs nothing more; any other waits for Close.
		if a.flushed {
			s.cursors.delete(a.id)
		}
		return nil
	}
	if a.buf == nil && !a.flushed && r.Type != core.EvEnqueue {
		s.take(a)
	}
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
		// The span is with the consumer.
		switch r.Type {
		case core.EvFault, core.EvTimeout, core.EvDupDrop:
			a.state = stAbsorbing
			return nil
		}
	}
	if err := a.apply(r); err != nil {
		return fmt.Errorf("ptrace: record %d: %w", s.seen-1, err)
	}
	// Delivered, not faulted, setaside slot released: the span is complete.
	// The header stays behind so the packet's later ACK is still legal,
	// until the packet retires.
	if a.state == stDone && !a.flushed && a.setasideAt < 0 && !a.faulted {
		a.flushed = true
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
	s.drain()
	closed := s.feed.closed
	s.release()
	if s.err != nil || closed {
		return s.err
	}
	rest := make([]*pktAsm, 0, s.cursors.count())
	s.cursors.each(func(a *pktAsm) {
		if !a.flushed {
			rest = append(rest, a)
		}
	})
	sort.Slice(rest, func(i, j int) bool {
		ai, aj := rest[i].injected(), rest[j].injected()
		if ai != aj {
			return ai < aj
		}
		return rest[i].id < rest[j].id
	})
	// A cursor still in its queue builds its span now, in the buffer the
	// previous flush gave back.
	for _, a := range rest {
		if a.buf == nil {
			s.take(a)
		}
		if err := s.flush(a); err != nil {
			s.err = err
			return err
		}
	}
	s.cursors = cursorTable{}
	return nil
}

// Abort is Close for a run that is failing, and is meant for a defer: it
// waits for the batch in flight, if any, drops the records not yet handed
// off and closes the stream, so no callback runs after it returns. It
// never panics; a callback panic it finds latches into Err, and the panic
// already unwinding stays the run's failure. After Close it does nothing.
func (s *Stream) Abort() {
	s.settle()
	s.release()
}

// release returns the stream's batch buffers to the pool and marks it
// closed. Nothing may be in flight.
func (s *Stream) release() {
	f := &s.feed
	for _, b := range [...][]Record{f.fill, f.spare} {
		if b != nil {
			batches.Put((*batch)(b))
		}
	}
	f.fill, f.spare, f.n, f.closed = nil, nil, 0, true
}
