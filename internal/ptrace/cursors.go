package ptrace

// spanBuf is the part of a packet's assembly state the consumer sees: the
// span and its first inlinePhases phases. A Stream takes one from the
// table's free list at the packet's first record past EvEnqueue — while it
// waits in its output queue the header carries it — and returns it the
// moment OnSpan returns; Assemble takes one per packet at EvInject and
// never returns it, because its TraceResult owns the spans.
type spanBuf struct {
	span   PacketSpan
	inline [inlinePhases]Phase
}

// poisonSpans, set only by tests, overwrites a span buffer on recycle so a
// consumer reading a span after its OnSpan call returned sees garbage
// instead of a plausible packet.
var poisonSpans bool

func (b *spanBuf) poison() {
	b.span.ID = ^uint64(0)
	b.span.Delivered = -2
	for i := range b.inline {
		b.inline[i] = Phase{Kind: 255, From: -1, To: -1}
	}
	b.span.Phases = b.span.Phases[:0]
}

// cursorTable is the cursor store of an intake: every lookup, open,
// delete, walk and count goes through it.
//
// A core.Network numbers packets with nextID++ and emits EvInject in that
// order, so the resident ids of a stream are a window sliding up the id
// space. The table keeps that window in a power-of-two ring of cursors by
// value — slot (id - base) from the ring head, base advancing past freed
// slots at the head — and finds a cursor with a subtraction and a mask
// where a map hashes, probes and chases a pointer. It is one store behind
// one accessor, not a fast path beside a map: which of its two places an
// id lands in follows from a property the table observes in its input (ids
// arrive in sequence), which every simulated stream has.
//
// Ids the window cannot cover — hand-built, decoded or fuzzed streams: an
// id below base, a jump far past the ring — live in the overflow map,
// consulted only when it is non-empty. So do stragglers: when the window
// would have to grow while it is mostly holes (a few old cursors pin base
// while ids run ahead), the head cursors move to the overflow and the
// window slides instead. Resident memory therefore stays O(live cursors):
// the ring doubles only while at least half full.
//
// Growing the ring moves cursors, so a *pktAsm from get or open is valid
// only until the next open.
type cursorTable struct {
	ring  []pktAsm // len is zero or a power of two
	head  int      // ring index of id base
	base  uint64   // lowest id the window covers
	width uint64   // the window covers ids [base, base+width); width > 0 ⇒ ring[head] is in use
	live  int      // cursors in the ring

	over map[uint64]*pktAsm // cursors outside the window
	free []*spanBuf         // recycled span buffers
}

const minRing = 64

// slot returns the ring slot of the id off places above base.
func (t *cursorTable) slot(off uint64) *pktAsm {
	return &t.ring[(t.head+int(off))&(len(t.ring)-1)]
}

// get returns id's cursor, or nil.
func (t *cursorTable) get(id uint64) *pktAsm {
	// Unsigned: an id below base wraps to an offset past any width.
	if off := id - t.base; off < t.width {
		if a := t.slot(off); a.state != stFree {
			return a
		}
	}
	if len(t.over) == 0 {
		return nil
	}
	return t.over[id]
}

// open returns a fresh cursor for id, which must not be in the table: id
// and state (stInjected) set, everything else zero.
func (t *cursorTable) open(id uint64) *pktAsm {
	if t.ring == nil {
		t.ring = make([]pktAsm, minRing)
	}
	var off uint64
	for {
		if t.live == 0 {
			t.base, t.head = id, 0 // an empty window starts at the next id
		}
		if off = id - t.base; off < uint64(len(t.ring)) {
			break
		}
		switch {
		case off >= 2*uint64(len(t.ring)):
			// Out of the window's reach (or below it).
			return t.park(pktAsm{id: id, state: stInjected})
		case 2*t.live >= len(t.ring):
			t.grow()
		default:
			// Mostly holes: move the straggler at the head aside and slide.
			t.park(t.ring[t.head])
			t.vacate(&t.ring[t.head])
		}
	}
	if off >= t.width {
		t.width = off + 1
	}
	t.live++
	a := t.slot(off)
	a.id, a.state = id, stInjected
	return a
}

// grow doubles the ring, re-seating base at index 0.
func (t *cursorTable) grow() {
	ring := make([]pktAsm, 2*len(t.ring))
	n := copy(ring, t.ring[t.head:])
	copy(ring[n:], t.ring[:t.head])
	t.ring, t.head = ring, 0
}

// park puts a cursor in the overflow map.
func (t *cursorTable) park(a pktAsm) *pktAsm {
	if t.over == nil {
		t.over = make(map[uint64]*pktAsm)
	}
	t.over[a.id] = &a
	return &a
}

// vacate frees a ring slot and advances base past the free slots at the
// head. Each step of that walk retires one id the window once opened, so
// it is O(1) amortised per open.
func (t *cursorTable) vacate(a *pktAsm) {
	*a = pktAsm{}
	t.live--
	for t.width > 0 && t.ring[t.head].state == stFree {
		t.head = (t.head + 1) & (len(t.ring) - 1)
		t.base++
		t.width--
	}
}

// delete removes id's cursor, recycling a span buffer it still holds.
func (t *cursorTable) delete(id uint64) {
	if off := id - t.base; off < t.width {
		if a := t.slot(off); a.state != stFree {
			t.recycle(a)
			t.vacate(a)
			return
		}
	}
	if a := t.over[id]; a != nil {
		t.recycle(a)
		delete(t.over, id)
	}
}

// each calls fn on every cursor, in no particular order: Stream.Close
// sorts what it collects.
func (t *cursorTable) each(fn func(*pktAsm)) {
	for off := uint64(0); off < t.width; off++ {
		if a := t.slot(off); a.state != stFree {
			fn(a)
		}
	}
	for _, a := range t.over {
		fn(a)
	}
}

// count returns the number of cursors in the table.
func (t *cursorTable) count() int { return t.live + len(t.over) }

// newBuf hands out a span buffer, off the free list when it has one. The
// caller overwrites span; inline is scratch that span.Phases grows into.
func (t *cursorTable) newBuf() *spanBuf {
	if n := len(t.free); n > 0 {
		b := t.free[n-1]
		t.free = t.free[:n-1]
		return b
	}
	return new(spanBuf)
}

// recycle returns a's span buffer, if it still has one, to the free list.
// The span must not be reachable by anyone afterwards.
func (t *cursorTable) recycle(a *pktAsm) {
	if a.buf == nil {
		return
	}
	if poisonSpans {
		a.buf.poison()
	}
	t.free = append(t.free, a.buf)
	a.buf = nil
}
