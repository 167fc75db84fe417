package sim

// Queue is a growable FIFO with an optional capacity bound, used for router
// output queues, ejection buffers and setaside slots. It is implemented as a
// circular buffer so steady-state operation allocates nothing.
//
// A capacity of 0 means unbounded (the conventional "infinite source queue"
// of open-loop network evaluation); positive capacities model finite
// buffers.
type Queue[T any] struct {
	buf   []T
	head  int
	size  int
	limit int
}

// NewQueue returns a queue bounded to limit items; limit 0 means unbounded.
func NewQueue[T any](limit int) *Queue[T] {
	cap0 := 8
	if limit > 0 && limit < cap0 {
		cap0 = limit
	}
	return &Queue[T]{buf: make([]T, cap0), limit: limit}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// Full reports whether the queue has reached its capacity bound.
func (q *Queue[T]) Full() bool { return q.limit > 0 && q.size >= q.limit }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

func (q *Queue[T]) grow() {
	nb := make([]T, 2*len(q.buf))
	n := copy(nb, q.buf[q.head:])
	copy(nb[n:], q.buf[:q.head])
	q.buf = nb
	q.head = 0
}

// PushBack appends v; it reports false (and leaves the queue unchanged) when
// the queue is full.
func (q *Queue[T]) PushBack(v T) bool {
	if q.Full() {
		return false
	}
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
	return true
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

// PopFront removes and returns the head item.
func (q *Queue[T]) PopFront() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release reference for GC
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return v, true
}
