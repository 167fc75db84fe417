package sim

import "fmt"

// DelayLine models items in flight with per-item arrival cycles — optical
// packets traversing a waveguide, handshake pulses returning to a sender,
// and so on. Items scheduled for cycle c are returned by PopDue(c).
//
// Internally it is a circular buffer of buckets indexed by cycle modulo the
// horizon, so scheduling and popping are O(1) amortised. The horizon (the
// farthest future cycle that may be scheduled) is fixed at construction;
// exceeding it is a programming error and panics.
type DelayLine[T any] struct {
	buckets [][]T
	now     int64 // next cycle to be popped
	idx     int   // now % len(buckets), maintained incrementally
	count   int
}

// NewDelayLine returns a delay line able to hold items up to horizon cycles
// in the future. Horizon must be positive.
func NewDelayLine[T any](horizon int) *DelayLine[T] {
	if horizon <= 0 {
		panic("sim: DelayLine horizon must be positive")
	}
	return &DelayLine[T]{buckets: make([][]T, horizon+1)}
}

// Len reports how many items are currently in flight.
func (d *DelayLine[T]) Len() int { return d.count }

// Schedule places v so that it will be returned by PopDue(due). due must not
// be earlier than the next un-popped cycle nor beyond the horizon.
func (d *DelayLine[T]) Schedule(due int64, v T) {
	if due < d.now {
		panic(fmt.Sprintf("sim: DelayLine schedule in the past (due %d, now %d)", due, d.now))
	}
	if due-d.now >= int64(len(d.buckets)) {
		panic(fmt.Sprintf("sim: DelayLine schedule beyond horizon (due %d, now %d, horizon %d)", due, d.now, len(d.buckets)-1))
	}
	idx := due % int64(len(d.buckets))
	d.buckets[idx] = append(d.buckets[idx], v)
	d.count++
}

// PopDue returns (and removes) every item scheduled for cycle now. Cycles
// must be popped in non-decreasing order; skipping a cycle forfeits its
// items, so callers pop every cycle. The returned slice is owned by the
// caller until the same bucket cycles around: the bucket's storage is
// retained for reuse (a bucket popped at cycle c cannot be scheduled into
// again before cycle c+1 by the horizon bound, so the caller always gets
// a full cycle of exclusive ownership), which makes steady-state
// scheduling allocation-free.
func (d *DelayLine[T]) PopDue(now int64) []T {
	if now < d.now {
		return nil
	}
	idx := d.idx
	if now != d.now {
		// Cycles were skipped: recompute the ring position (rare).
		idx = int(now % int64(len(d.buckets)))
	}
	d.now = now + 1
	if d.idx = idx + 1; d.idx == len(d.buckets) {
		d.idx = 0
	}
	out := d.buckets[idx]
	if out == nil {
		return nil
	}
	d.buckets[idx] = out[:0]
	d.count -= len(out)
	return out
}

// SkipTo fast-forwards an *empty* delay line's clock to cycle now, so the
// next Schedule/PopDue sees a current horizon. It is the discrete-event
// companion to the cycle-by-cycle PopDue: when the owner proves nothing is
// in flight it may skip the intervening cycles in one step. Skipping a
// non-empty line would silently strand its items, so that panics.
func (d *DelayLine[T]) SkipTo(now int64) {
	if now <= d.now {
		return
	}
	if d.count != 0 {
		panic(fmt.Sprintf("sim: DelayLine skip to cycle %d with %d items in flight", now, d.count))
	}
	d.now = now
	d.idx = int(now % int64(len(d.buckets)))
}

// SlotLine is a DelayLine restricted to at most one item per cycle. The
// wave-pipelined data channel uses it: two packets arriving at the home node
// in the same cycle would mean two light pulses overlapping in the same
// channel segment, which correct arbitration must never allow. Schedule
// reports an ErrSlotTaken instead of silently queueing, turning an
// arbitration bug into a loud failure.
type SlotLine[T any] struct {
	slots []slotEntry[T]
	now   int64
	idx   int // now % len(slots), maintained incrementally
	count int
}

type slotEntry[T any] struct {
	val  T
	full bool
}

// ErrSlotTaken is returned by SlotLine.Schedule when the target cycle is
// already occupied.
type ErrSlotTaken struct {
	Due int64
}

func (e *ErrSlotTaken) Error() string {
	return fmt.Sprintf("sim: channel slot at cycle %d already occupied", e.Due)
}

// NewSlotLine returns a slot line with the given horizon (maximum number of
// cycles into the future that may be booked).
func NewSlotLine[T any](horizon int) *SlotLine[T] {
	if horizon <= 0 {
		panic("sim: SlotLine horizon must be positive")
	}
	return &SlotLine[T]{slots: make([]slotEntry[T], horizon+1)}
}

// Len reports how many slots are currently occupied.
func (s *SlotLine[T]) Len() int { return s.count }

// Schedule books cycle due for v. It fails with *ErrSlotTaken if that cycle
// is already booked, and panics on past/beyond-horizon cycles (programming
// errors rather than modelled conditions).
func (s *SlotLine[T]) Schedule(due int64, v T) error {
	if due < s.now {
		panic(fmt.Sprintf("sim: SlotLine schedule in the past (due %d, now %d)", due, s.now))
	}
	if due-s.now >= int64(len(s.slots)) {
		panic(fmt.Sprintf("sim: SlotLine schedule beyond horizon (due %d, now %d, horizon %d)", due, s.now, len(s.slots)-1))
	}
	idx := due % int64(len(s.slots))
	if s.slots[idx].full {
		return &ErrSlotTaken{Due: due}
	}
	s.slots[idx] = slotEntry[T]{val: v, full: true}
	s.count++
	return nil
}

// PopDue returns the item booked for cycle now, if any.
func (s *SlotLine[T]) PopDue(now int64) (T, bool) {
	var zero T
	if now < s.now {
		return zero, false
	}
	idx := s.idx
	if now != s.now {
		// Cycles were skipped: recompute the ring position (rare).
		idx = int(now % int64(len(s.slots)))
	}
	s.now = now + 1
	if s.idx = idx + 1; s.idx == len(s.slots) {
		s.idx = 0
	}
	e := s.slots[idx]
	if !e.full {
		return zero, false
	}
	s.slots[idx] = slotEntry[T]{}
	s.count--
	return e.val, true
}

// SkipTo fast-forwards an *empty* slot line's clock to cycle now (see
// DelayLine.SkipTo). Panics if any slot is still occupied.
func (s *SlotLine[T]) SkipTo(now int64) {
	if now <= s.now {
		return
	}
	if s.count != 0 {
		panic(fmt.Sprintf("sim: SlotLine skip to cycle %d with %d slots occupied", now, s.count))
	}
	s.now = now
	s.idx = int(now % int64(len(s.slots)))
}
