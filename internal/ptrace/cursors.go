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
// space. The table keeps that window in fixed pages of cursors by value:
// a page holds pageLen consecutive ids, page number id>>pageBits, and a
// power-of-two ring of page pointers covers the window — slot (page -
// base) from the ring head, base advancing past empty slots at the head.
// A lookup is a shift, a subtraction, a mask and one pointer hop, where a
// map hashes, probes and chases a pointer. It is one store behind one
// accessor, not a fast path beside a map: which of its two places an id
// lands in follows from a property the table observes in its input (ids
// arrive in sequence), which every simulated stream has.
//
// A page is taken when the first of its ids opens, from the table's spare
// list when it has one, and goes back there, zeroed, when its last cursor
// is deleted. Growing the window doubles only the pointer ring: no cursor
// is ever copied to make room.
//
// Ids the window cannot cover — hand-built, decoded or fuzzed streams: an
// id below the window, a jump far past the ring — live in the overflow
// map, consulted only when it is non-empty. So do stragglers: when the
// ring would have to grow while its slots are mostly empty (a few old
// cursors pin base while ids run ahead) or its pages are (old cursors
// spread out, one pinning each page), the head page's cursors move to the
// overflow, the page goes to the spare list and the window slides
// instead. Resident memory therefore stays O(live cursors), not O(id
// span): the ring doubles only while at least half its slots hold a page
// and those pages hold pageLen/fillDiv live cursors each on average, so
// it never passes max(minRing, 4·fillDiv·peak/pageLen) slots for a peak
// of peak live cursors; a page is
// held only while one of its cursors is live, and the pages made, held
// or spare, are never more than the ring once had slots. That is at most
// 4·fillDiv cursors' bytes of pages per live cursor, past minRing pages.
//
// Eviction moves cursors, so a *pktAsm from get or open is valid only
// until the next open.
type cursorTable struct {
	ring  []pageRef // len is zero or a power of two
	head  int       // ring index of page base
	base  uint64    // lowest page the window covers
	width uint64    // the window covers pages [base, base+width); width > 0 ⇒ ring[head].p != nil
	held  int       // pages in the ring
	live  int       // cursors in those pages

	spare []*page            // emptied pages, all zero
	over  map[uint64]*pktAsm // cursors outside the window
	free  []*spanBuf         // recycled span buffers
}

// pageBits sets a page's length: 1,024 cursors of 56 bytes are 57,344
// bytes, exactly seven of the runtime's 8 KiB pages, so a page wastes
// nothing. No shorter power of two fills its size class: the allocator
// puts an 8-byte header in front of an object with pointers past 512
// bytes, so 256 cursors (14,336 + 8 bytes) would take the 16,384-byte
// class and waste an eighth.
const (
	pageBits = 10
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1
)

// page holds the cursors of pageLen consecutive ids, id&pageMask each.
type page [pageLen]pktAsm

// pageRef is a slot of the pointer ring: its page, if any, and how many
// of that page's cursors are live. The count sits here rather than in the
// page so that the page fills its size class exactly.
type pageRef struct {
	p    *page
	live int
}

// minRing is the pointer ring's first length, in pages.
const minRing = 4

// fillDiv bounds how sparse the window may be when the ring doubles: its
// pages must hold at least pageLen/fillDiv live cursors each on average.
const fillDiv = 8

// ref returns the ring slot of the page off places above base.
func (t *cursorTable) ref(off uint64) *pageRef {
	return &t.ring[(t.head+int(off))&(len(t.ring)-1)]
}

// get returns id's cursor, or nil.
func (t *cursorTable) get(id uint64) *pktAsm {
	// Unsigned: a page below base wraps to an offset past any width.
	if off := id>>pageBits - t.base; off < t.width {
		if p := t.ref(off).p; p != nil {
			if a := &p[id&pageMask]; a.state != stFree {
				return a
			}
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
		t.ring = make([]pageRef, minRing)
	}
	pg := id >> pageBits
	var off uint64
	for {
		if t.width == 0 {
			t.base, t.head = pg, 0 // an empty window starts at the next id's page
		}
		if off = pg - t.base; off < uint64(len(t.ring)) {
			break
		}
		switch {
		case off >= 2*uint64(len(t.ring)):
			// Out of the window's reach (or below it).
			return t.park(pktAsm{id: id, state: stInjected})
		case 2*t.held >= len(t.ring) && t.held*pageLen <= fillDiv*t.live:
			t.grow()
		default:
			// Mostly empty slots or pages: move the stragglers at the
			// head aside and slide.
			t.evict()
		}
	}
	if off >= t.width {
		t.width = off + 1
	}
	r := t.ref(off)
	if r.p == nil {
		r.p = t.newPage()
		t.held++
	}
	r.live++
	t.live++
	a := &r.p[id&pageMask]
	a.id, a.state = id, stInjected
	return a
}

// grow doubles the pointer ring, re-seating base at index 0.
func (t *cursorTable) grow() {
	ring := make([]pageRef, 2*len(t.ring))
	n := copy(ring, t.ring[t.head:])
	copy(ring[n:], t.ring[:t.head])
	t.ring, t.head = ring, 0
}

// newPage hands out an all-zero page, off the spare list when it has one.
func (t *cursorTable) newPage() *page {
	if n := len(t.spare); n > 0 {
		p := t.spare[n-1]
		t.spare = t.spare[:n-1]
		return p
	}
	return new(page)
}

// park puts a cursor in the overflow map.
func (t *cursorTable) park(a pktAsm) *pktAsm {
	if t.over == nil {
		t.over = make(map[uint64]*pktAsm)
	}
	t.over[a.id] = &a
	return &a
}

// evict moves the cursors of the page at the head to the overflow map
// and drops the page.
func (t *cursorTable) evict() {
	r := &t.ring[t.head]
	for i := range r.p {
		if a := &r.p[i]; a.state != stFree {
			t.park(*a)
			*a = pktAsm{}
		}
	}
	t.live -= r.live
	r.live = 0
	t.drop(r)
}

// drop returns an emptied page to the spare list and advances base past
// the empty slots at the head. Each step of that walk retires a page the
// window once covered, so it is O(1) amortised per page opened.
func (t *cursorTable) drop(r *pageRef) {
	t.spare = append(t.spare, r.p)
	r.p = nil
	t.held--
	for t.width > 0 && t.ring[t.head].p == nil {
		t.head = (t.head + 1) & (len(t.ring) - 1)
		t.base++
		t.width--
	}
}

// delete removes id's cursor, recycling a span buffer it still holds.
func (t *cursorTable) delete(id uint64) {
	if off := id>>pageBits - t.base; off < t.width {
		if r := t.ref(off); r.p != nil {
			if a := &r.p[id&pageMask]; a.state != stFree {
				t.recycle(a)
				*a = pktAsm{}
				t.live--
				if r.live--; r.live == 0 {
					t.drop(r)
				}
				return
			}
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
		p := t.ref(off).p
		if p == nil {
			continue
		}
		for i := range p {
			if a := &p[i]; a.state != stFree {
				fn(a)
			}
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
