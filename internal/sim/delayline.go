package sim

import "fmt"

// DelayLine models items in flight with per-item arrival cycles — optical
// packets traversing a waveguide, handshake pulses returning to a sender,
// and so on. Items scheduled for cycle c are returned by PopDue(c).
//
// Internally it is a circular buffer of buckets indexed by cycle modulo
// the horizon plus one, so scheduling and popping are O(1) amortised. The
// horizon (the farthest future cycle that may be scheduled, counted from
// the caller's current cycle) is fixed at construction; exceeding it is a
// programming error and panics. An owner that knows which cycles have
// items due (the network's arrival and pulse calendars) pops only those
// cycles: a skipped cycle had nothing in its bucket, so skipping it loses
// nothing.
type DelayLine[T any] struct {
	buckets [][]T
	ring
	count int
}

// ring maps cycles to the positions of a circular buffer of size entries,
// c mod size, for any cycle c from now, the next cycle to be popped. It
// keeps now's position, so a cycle less than a lap ahead of it costs an
// add and a compare; only a pop after a longer silence divides.
type ring struct {
	now  int64
	idx  int // now % size
	size int
}

func (r *ring) pos(c int64) int {
	if off := c - r.now; off < int64(r.size) {
		i := r.idx + int(off)
		if i >= r.size {
			i -= r.size
		}
		return i
	}
	return int(c % int64(r.size))
}

// pop returns cycle now's position and moves the next cycle to be popped
// past it.
func (r *ring) pop(now int64) int {
	i := r.pos(now)
	r.now = now + 1
	if r.idx = i + 1; r.idx == r.size {
		r.idx = 0
	}
	return i
}

// NewDelayLine returns a delay line able to hold items up to horizon cycles
// in the future. Horizon must be positive.
func NewDelayLine[T any](horizon int) *DelayLine[T] {
	if horizon <= 0 {
		panic("sim: DelayLine horizon must be positive")
	}
	return &DelayLine[T]{buckets: make([][]T, horizon+1), ring: ring{size: horizon + 1}}
}

// Len reports how many items are currently in flight.
func (d *DelayLine[T]) Len() int { return d.count }

// Schedule places v so that it will be returned by PopDue(due). now is the
// caller's current cycle: due must be neither before it, nor before a
// cycle already popped, nor beyond the horizon from it.
func (d *DelayLine[T]) Schedule(now, due int64, v T) {
	if due < now || due < d.now {
		panic(fmt.Sprintf("sim: DelayLine schedule in the past (due %d, now %d)", due, max(now, d.now)))
	}
	if due-now >= int64(d.size) {
		panic(fmt.Sprintf("sim: DelayLine schedule beyond horizon (due %d, now %d, horizon %d)", due, now, d.size-1))
	}
	idx := d.pos(due)
	d.buckets[idx] = append(d.buckets[idx], v)
	d.count++
}

// PopDue returns (and removes) every item scheduled for cycle now. Cycles
// must be popped in non-decreasing order; skipping a cycle forfeits its
// items, so callers pop every cycle that has any. The returned slice is
// owned by the caller until the same bucket cycles around: the bucket's
// storage is retained for reuse (a bucket popped at cycle c cannot be
// scheduled into again before cycle c+1 by the horizon bound, so the
// caller always gets a full cycle of exclusive ownership), which makes
// steady-state scheduling allocation-free.
func (d *DelayLine[T]) PopDue(now int64) []T {
	if now < d.now {
		return nil
	}
	idx := d.pop(now)
	out := d.buckets[idx]
	if out == nil {
		return nil
	}
	d.buckets[idx] = out[:0]
	d.count -= len(out)
	return out
}

// SlotLine is a DelayLine restricted to at most one item per cycle. The
// wave-pipelined data channel uses it: two packets arriving at the home node
// in the same cycle would mean two light pulses overlapping in the same
// channel segment, which correct arbitration must never allow. Schedule
// reports an ErrSlotTaken instead of silently queueing, turning an
// arbitration bug into a loud failure.
type SlotLine[T any] struct {
	slots []slotEntry[T]
	ring
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
	return &SlotLine[T]{slots: make([]slotEntry[T], horizon+1), ring: ring{size: horizon + 1}}
}

// Len reports how many slots are currently occupied.
func (s *SlotLine[T]) Len() int { return s.count }

// Schedule books cycle due for v; now is the caller's current cycle (see
// DelayLine.Schedule). It fails with *ErrSlotTaken if that cycle is
// already booked, and panics on past/beyond-horizon cycles (programming
// errors rather than modelled conditions).
func (s *SlotLine[T]) Schedule(now, due int64, v T) error {
	if due < now || due < s.now {
		panic(fmt.Sprintf("sim: SlotLine schedule in the past (due %d, now %d)", due, max(now, s.now)))
	}
	if due-now >= int64(s.size) {
		panic(fmt.Sprintf("sim: SlotLine schedule beyond horizon (due %d, now %d, horizon %d)", due, now, s.size-1))
	}
	idx := s.pos(due)
	if s.slots[idx].full {
		return &ErrSlotTaken{Due: due}
	}
	s.slots[idx] = slotEntry[T]{val: v, full: true}
	s.count++
	return nil
}

// PopDue returns the item booked for cycle now, if any. As with DelayLine,
// a cycle that is never popped must have had nothing booked.
func (s *SlotLine[T]) PopDue(now int64) (T, bool) {
	var zero T
	if now < s.now {
		return zero, false
	}
	idx := s.pop(now)
	e := s.slots[idx]
	if !e.full {
		return zero, false
	}
	s.slots[idx] = slotEntry[T]{}
	s.count--
	return e.val, true
}
