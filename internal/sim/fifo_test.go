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

func TestQueuePushFront(t *testing.T) {
	q := NewQueue[int](0)
	q.PushBack(2)
	q.PushBack(3)
	if !q.PushFront(1) {
		t.Fatal("PushFront failed")
	}
	for want := 1; want <= 3; want++ {
		v, _ := q.PopFront()
		if v != want {
			t.Fatalf("got %d, want %d", v, want)
		}
	}
}

func TestQueuePushFrontWrap(t *testing.T) {
	// Exercise head wrap-around: pop a few then push front repeatedly.
	q := NewQueue[int](0)
	for i := 0; i < 8; i++ {
		q.PushBack(i)
	}
	for i := 0; i < 5; i++ {
		q.PopFront()
	}
	for i := 0; i < 10; i++ {
		q.PushFront(100 + i)
	}
	// Expect 109..100 then 5,6,7.
	want := []int{109, 108, 107, 106, 105, 104, 103, 102, 101, 100, 5, 6, 7}
	for i, w := range want {
		v, ok := q.PopFront()
		if !ok || v != w {
			t.Fatalf("pos %d: got %d ok=%v, want %d", i, v, ok, w)
		}
	}
}

func TestQueueAtAndPeek(t *testing.T) {
	q := NewQueue[string](0)
	q.PushBack("a")
	q.PushBack("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q, %v", v, ok)
	}
	if q.At(1) != "b" {
		t.Fatalf("At(1) = %q", q.At(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	q.At(2)
}

func TestQueueClear(t *testing.T) {
	q := NewQueue[int](5)
	q.PushBack(1)
	q.PushBack(2)
	q.Clear()
	if q.Len() != 0 || q.Full() {
		t.Fatalf("after Clear: len %d full %v", q.Len(), q.Full())
	}
	if !q.PushBack(3) {
		t.Fatal("push after clear failed")
	}
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
			case 0:
				q.PushBack(next)
				model = append(model, next)
				next++
			case 1:
				q.PushFront(next)
				model = append([]int{next}, model...)
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
			if q.At(i) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
