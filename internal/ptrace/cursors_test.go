package ptrace

import (
	"runtime"
	"testing"
	"unsafe"
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
	pages   int    // pages the table had made at the last check
	peak    int    // the most live ids so far
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
	lo, hi, reach := tab.base<<pageBits, (tab.base+tab.width)<<pageBits, (tab.base+uint64(len(tab.ring)))<<pageBits
	for _, id := range []uint64{r.deleted, r.next, lo - 1, lo, hi - 1, hi, reach} {
		if _, live := r.want[id]; !live && tab.get(id) != nil {
			t.Fatalf("get(%d) = %+v for an id that is not live", id, *tab.get(id))
		}
	}

	n := len(tab.ring)
	if n&(n-1) != 0 || tab.width > uint64(n) {
		t.Fatalf("ring of %d pages, window %d pages wide", n, tab.width)
	}
	// Every page is in the window, counts its own live cursors and holds
	// at least one.
	held, live := 0, 0
	for off := uint64(0); off < uint64(n); off++ {
		ref := tab.ref(off)
		if ref.p == nil {
			if ref.live != 0 {
				t.Fatalf("empty slot %d counts %d live cursors", off, ref.live)
			}
			continue
		}
		if off >= tab.width {
			t.Fatalf("page in slot %d, past the window's %d", off, tab.width)
		}
		inPage := 0
		for i := range ref.p {
			if a := &ref.p[i]; a.state != stFree {
				if a.id != (tab.base+off)<<pageBits|uint64(i) {
					t.Fatalf("cursor %+v sits in page %d, slot %d", *a, tab.base+off, i)
				}
				inPage++
			}
		}
		if inPage == 0 || inPage != ref.live {
			t.Fatalf("page %d holds %d cursors and counts %d; a held page holds at least one", tab.base+off, inPage, ref.live)
		}
		held++
		live += inPage
	}
	if held != tab.held || live != tab.live || (tab.width == 0) != (held == 0) {
		t.Fatalf("held = %d, live = %d, width = %d; the ring holds %d pages and %d cursors", tab.held, tab.live, tab.width, held, live)
	}
	if tab.width > 0 && tab.ring[tab.head].p == nil {
		t.Fatalf("window [%d,+%d) does not start at a held page", tab.base, tab.width)
	}
	// A dropped page goes to the spare list, zeroed, and nothing is lost.
	made := held + len(tab.spare)
	if made < r.pages {
		t.Fatalf("%d pages held and %d spare; the table had made %d", held, len(tab.spare), r.pages)
	}
	r.pages = made
	for _, p := range tab.spare {
		if *p != (page{}) {
			t.Fatalf("a spare page is not zero")
		}
	}
	// Resident memory follows the live cursors. A page is made only when
	// none is spare, so the pages made are the most ever held at once, and
	// a held page holds a live cursor. The ring doubles only while at
	// least half its slots hold a page and those pages hold pageLen/fillDiv
	// live cursors each on average, so it stays within 4 slots per page
	// made and within 4·fillDiv/pageLen slots per live cursor.
	if made > r.peak {
		t.Fatalf("%d pages made for at most %d live ids", made, r.peak)
	}
	if n > minRing && n > 4*made {
		t.Fatalf("ring of %d slots for %d pages made", n, made)
	}
	if n > minRing && n*pageLen > 4*fillDiv*r.peak {
		t.Fatalf("ring of %d slots for at most %d live ids", n, r.peak)
	}
}

// FuzzCursorTable drives open / get / delete / each against a map oracle.
// The input is a program, one op per letter, some with an operand byte:
//
//	o    open the next sequential id
//	O n  open n+1 sequential ids
//	w n  slide a window of 8 live ids over 16(n+1) sequential ids
//	d n  delete the n-th oldest live id      D n  the n-th newest
//	b n  open the id n+1 below the window's first page
//	j n  jump the sequence by 2^n
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
				r.open(r.tab.base<<pageBits - 1 - uint64(operand(&i)))
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

// pageBytes is the size of one page of cursors.
const pageBytes = int(unsafe.Sizeof(page{}))

// residentBytes returns the bytes the cursor table holds in pages — in
// the ring and spare — and in its pointer ring; the overflow map aside.
func (t *cursorTable) residentBytes() int {
	return (t.held+len(t.spare))*pageBytes + len(t.ring)*int(unsafe.Sizeof(pageRef{}))
}

// TestPageFillsItsSizeClass pins a page of cursors to its allocation on
// 64-bit platforms: what the allocator charges for a page is exactly its
// size, with no padding and no header.
func TestPageFillsItsSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size classes pinned here are those of 64-bit platforms")
	}
	const n = 64
	keep := make([]*page, n)
	var tab cursorTable
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = tab.newPage()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got != uint64(pageBytes) {
		t.Errorf("a page of %d bytes costs %d bytes", pageBytes, got)
	}
}
