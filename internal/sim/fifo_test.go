package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 100; i++ {
		if !q.PushBack(i) {
			t.Fatalf("unbounded push %d failed", i)
		}
	}
	for i := 0; i < 100; i++ {
		v, ok := q.PopFront()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.PopFront(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueBounded(t *testing.T) {
	q := NewQueue[int](3)
	for i := 0; i < 3; i++ {
		if !q.PushBack(i) {
			t.Fatalf("push %d within bound failed", i)
		}
	}
	if q.PushBack(99) {
		t.Fatal("push beyond bound succeeded")
	}
	if !q.Full() {
		t.Fatal("Full() = false at capacity")
	}
	q.PopFront()
	if q.Full() {
		t.Fatal("Full() = true after one pop")
	}
	if !q.PushBack(99) {
		t.Fatal("push after freeing failed")
	}
}

// at returns the item at position i from the head (0 = head) without
// removing it, so a test can read a queue's contents and keep using it. It
// panics when i is out of range.
func (q *Queue[T]) at(i int) T {
	if i < 0 || i >= q.size {
		panic("sim: Queue.at out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

func TestQueueAtAndPeek(t *testing.T) {
	q := NewQueue[string](0)
	q.PushBack("a")
	q.PushBack("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q, %v", v, ok)
	}
	if q.at(1) != "b" {
		t.Fatalf("at(1) = %q", q.at(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("at out of range did not panic")
		}
	}()
	q.at(2)
}

// TestQueueAgainstModel drives the queue with a random operation sequence
// and compares against a plain-slice model (property-based check of the
// circular buffer arithmetic).
func TestQueueAgainstModel(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewQueue[int](0)
		var model []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0, 1:
				q.PushBack(next)
				model = append(model, next)
				next++
			case 2:
				v, ok := q.PopFront()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		for i, w := range model {
			if q.at(i) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
