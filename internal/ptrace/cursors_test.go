package ptrace

import (
	"testing"
)

// tableRig drives a cursorTable beside a map oracle. Each cursor carries
// a tag in mark, so a cursor that growth or eviction moved to the wrong id
// shows as a wrong tag, not just as wrong membership, and a span buffer
// stamped with its id, so a buffer the free list handed out twice shows as
// a wrong stamp.
type tableRig struct {
	t       *testing.T
	tab     cursorTable
	want    map[uint64]int64 // id → tag
	order   []uint64         // live ids, oldest open first
	next    uint64           // the next sequential id
	tags    int64
	deleted uint64 // the id deleted last
	peak    int
}

func (r *tableRig) open(id uint64) {
	if _, live := r.want[id]; live {
		if r.tab.get(id) == nil {
			r.t.Fatalf("get(%d) = nil for a live id", id)
		}
		return
	}
	if a := r.tab.get(id); a != nil {
		r.t.Fatalf("get(%d) found cursor %+v for an id that is not live", id, *a)
	}
	a := r.tab.open(id)
	if a.id != id || a.state != stInjected || a.buf != nil || a.mark != 0 || a.last != 0 || a.flushed || a.faulted {
		r.t.Fatalf("open(%d) returned a cursor that is not fresh: %+v", id, *a)
	}
	r.tags++
	a.mark = r.tags
	a.buf = r.tab.newBuf()
	a.buf.span.ID = id
	r.want[id] = r.tags
	r.order = append(r.order, id)
	r.peak = max(r.peak, len(r.want))
}

func (r *tableRig) openNext() {
	r.open(r.next)
	r.next++
}

func (r *tableRig) delete(id uint64) {
	r.tab.delete(id)
	if _, live := r.want[id]; !live {
		return
	}
	delete(r.want, id)
	for i, o := range r.order {
		if o == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.deleted = id
}

// check holds the table to the oracle and to its own invariants.
func (r *tableRig) check() {
	t, tab := r.t, &r.tab
	if tab.count() != len(r.want) {
		t.Fatalf("count() = %d, oracle has %d", tab.count(), len(r.want))
	}
	for id, tag := range r.want {
		a := tab.get(id)
		if a == nil || a.id != id || a.mark != tag || a.buf.span.ID != id {
			t.Fatalf("get(%d) = %+v, want the cursor tagged %d with its own buffer", id, a, tag)
		}
	}
	seen := make(map[uint64]bool, len(r.want))
	tab.each(func(a *pktAsm) {
		if tag, live := r.want[a.id]; !live || a.mark != tag {
			t.Fatalf("each visited %+v; oracle has (live %v, tag %d)", *a, live, tag)
		}
		if seen[a.id] {
			t.Fatalf("each visited id %d twice", a.id)
		}
		seen[a.id] = true
	})
	if len(seen) != len(r.want) {
		t.Fatalf("each visited %d cursors, oracle has %d", len(seen), len(r.want))
	}
	// Ids at every edge of the window that are not live must read absent.
	for _, id := range []uint64{r.deleted, r.next, tab.base - 1, tab.base + tab.width, tab.base + uint64(len(tab.ring))} {
		if _, live := r.want[id]; !live && tab.get(id) != nil {
			t.Fatalf("get(%d) = %+v for an id that is not live", id, *tab.get(id))
		}
	}

	n := len(tab.ring)
	if n&(n-1) != 0 || tab.width > uint64(n) {
		t.Fatalf("ring of %d slots, window %d wide", n, tab.width)
	}
	inRing := 0
	for i := range tab.ring {
		if tab.ring[i].state != stFree {
			inRing++
		}
	}
	if inRing != tab.live || (tab.width == 0) != (tab.live == 0) {
		t.Fatalf("live = %d, width = %d, ring holds %d cursors", tab.live, tab.width, inRing)
	}
	if tab.width > 0 && (tab.ring[tab.head].state == stFree || tab.ring[tab.head].id != tab.base) {
		t.Fatalf("window [%d,+%d) does not start at a live cursor: %+v", tab.base, tab.width, tab.ring[tab.head])
	}
	// The ring doubles only while at least half full.
	if n > minRing && n > 4*r.peak {
		t.Fatalf("ring of %d slots for a peak of %d cursors", n, r.peak)
	}
}

// FuzzCursorTable drives open / get / delete / each against a map oracle.
// The input is a program, one op per letter, some with an operand byte:
//
//	o    open the next sequential id
//	O n  open n+1 sequential ids
//	w n  slide a window of 8 live ids over 16(n+1) sequential ids
//	d n  delete the n-th oldest live id      D n  the n-th newest
//	b n  open the id n+1 below the window    j n  jump the sequence by 2^n
//	a n  open the id n+1 ahead of the sequence, which then runs into it
//	r    re-open the id deleted last
//
// Any other byte is skipped. After every op the table must agree with the
// oracle on membership, count and contents, visit each live id once, and
// keep its own invariants (see tableRig.check). The seeds under
// testdata/fuzz/FuzzCursorTable spell out the cases the table exists for.
func FuzzCursorTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &tableRig{t: t, want: make(map[uint64]int64)}
		operand := func(i *int) int {
			if *i+1 < len(prog) {
				*i++
				return int(prog[*i])
			}
			return 0
		}
		for i := 0; i < len(prog); i++ {
			switch prog[i] {
			case 'o':
				r.openNext()
			case 'O':
				for n := operand(&i); n >= 0; n-- {
					r.openNext()
				}
			case 'w':
				var window []uint64
				for n := 16 * (operand(&i) + 1); n > 0; n-- {
					window = append(window, r.next)
					r.openNext()
					if len(window) > 8 {
						r.delete(window[0])
						window = window[1:]
					}
				}
			case 'd':
				if n := operand(&i); len(r.order) > 0 {
					r.delete(r.order[n%len(r.order)])
				}
			case 'D':
				if n := operand(&i); len(r.order) > 0 {
					r.delete(r.order[len(r.order)-1-n%len(r.order)])
				}
			case 'b':
				r.open(r.tab.base - 1 - uint64(operand(&i)))
			case 'a':
				r.open(r.next + 1 + uint64(operand(&i)))
			case 'j':
				r.next += 1 << (operand(&i) % 64)
			case 'r':
				r.open(r.deleted)
			default:
				continue
			}
			r.check()
		}
	})
}
