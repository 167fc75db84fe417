package sim

import (
	"testing"
)

func TestDelayLineBasic(t *testing.T) {
	d := NewDelayLine[int](10)
	d.Schedule(0, 3, 30)
	d.Schedule(0, 5, 50)
	d.Schedule(0, 5, 51)
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for now := int64(0); now < 8; now++ {
		got := d.PopDue(now)
		switch now {
		case 3:
			if len(got) != 1 || got[0] != 30 {
				t.Fatalf("cycle 3: got %v", got)
			}
		case 5:
			if len(got) != 2 || got[0] != 50 || got[1] != 51 {
				t.Fatalf("cycle 5: got %v", got)
			}
		default:
			if len(got) != 0 {
				t.Fatalf("cycle %d: got %v, want empty", now, got)
			}
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len after draining = %d", d.Len())
	}
}

func TestDelayLineWrapsAround(t *testing.T) {
	d := NewDelayLine[int](4)
	for now := int64(0); now < 100; now++ {
		d.Schedule(now, now+3, int(now))
		got := d.PopDue(now)
		if now < 3 {
			if len(got) != 0 {
				t.Fatalf("cycle %d: unexpected %v", now, got)
			}
			continue
		}
		if len(got) != 1 || got[0] != int(now-3) {
			t.Fatalf("cycle %d: got %v, want [%d]", now, got, now-3)
		}
	}
}

func TestDelayLineSameCycle(t *testing.T) {
	d := NewDelayLine[string](4)
	d.Schedule(0, 0, "now")
	if got := d.PopDue(0); len(got) != 1 || got[0] != "now" {
		t.Fatalf("same-cycle schedule: got %v", got)
	}
}

func TestDelayLinePanicsOnPast(t *testing.T) {
	d := NewDelayLine[int](4)
	d.PopDue(5)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	d.Schedule(5, 4, 1)
}

func TestDelayLinePanicsBeyondHorizon(t *testing.T) {
	d := NewDelayLine[int](4)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling beyond horizon did not panic")
		}
	}()
	d.Schedule(0, 5, 1)
}

func TestDelayLinePanicsOnBadHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero horizon did not panic")
		}
	}()
	NewDelayLine[int](0)
}

func TestSlotLineExclusive(t *testing.T) {
	s := NewSlotLine[int](10)
	if err := s.Schedule(0, 4, 1); err != nil {
		t.Fatalf("first booking failed: %v", err)
	}
	err := s.Schedule(0, 4, 2)
	if err == nil {
		t.Fatal("double booking did not error")
	}
	if _, ok := err.(*ErrSlotTaken); !ok {
		t.Fatalf("error type %T, want *ErrSlotTaken", err)
	}
	if err := s.Schedule(0, 5, 3); err != nil {
		t.Fatalf("booking the free neighbouring cycle failed: %v", err)
	}
}

func TestSlotLinePopInOrder(t *testing.T) {
	s := NewSlotLine[int](8)
	if err := s.Schedule(0, 2, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(0, 5, 50); err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 8; now++ {
		v, ok := s.PopDue(now)
		want := now == 2 || now == 5
		if ok != want {
			t.Fatalf("cycle %d: ok=%v", now, ok)
		}
		if ok && v != int(now)*10 {
			t.Fatalf("cycle %d: got %d", now, v)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len after drain = %d", s.Len())
	}
}

func TestSlotLineSlotReusableAfterPop(t *testing.T) {
	s := NewSlotLine[int](4)
	if err := s.Schedule(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	s.PopDue(0)
	s.PopDue(1)
	// The slot for cycle 1 wrapped; cycle 6 maps to the same bucket.
	if err := s.Schedule(2, 6, 6); err != nil {
		t.Fatalf("reusing popped bucket failed: %v", err)
	}
}

func TestSlotLinePanicsOnPast(t *testing.T) {
	s := NewSlotLine[int](4)
	s.PopDue(3)
	defer func() {
		if recover() == nil {
			t.Fatal("past booking did not panic")
		}
	}()
	_ = s.Schedule(3, 2, 1)
}

// TestLinesScheduleAfterSkippedPops: an owner that pops only the cycles
// with items due leaves the line's own clock behind; the horizon is then
// counted from the caller's current cycle, and items still land on their
// due cycle.
func TestLinesScheduleAfterSkippedPops(t *testing.T) {
	d := NewDelayLine[int](4)
	s := NewSlotLine[int](4)
	d.Schedule(0, 2, 2)
	if err := s.Schedule(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	if got := d.PopDue(2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DelayLine cycle 2: got %v", got)
	}
	if v, ok := s.PopDue(2); !ok || v != 2 {
		t.Fatalf("SlotLine cycle 2: got %d, %v", v, ok)
	}
	// Cycles 3..99 are never popped: nothing was due in them.
	d.Schedule(100, 104, 104)
	if err := s.Schedule(100, 104, 104); err != nil {
		t.Fatal(err)
	}
	if got := d.PopDue(103); len(got) != 0 {
		t.Fatalf("DelayLine cycle 103: got %v", got)
	}
	if got := d.PopDue(104); len(got) != 1 || got[0] != 104 {
		t.Fatalf("DelayLine cycle 104: got %v", got)
	}
	if v, ok := s.PopDue(104); !ok || v != 104 {
		t.Fatalf("SlotLine cycle 104: got %d, %v", v, ok)
	}
	for _, f := range []func(){
		func() { d.Schedule(100, 105, 0) },
		func() { _ = s.Schedule(100, 105, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("scheduling beyond the horizon from the current cycle did not panic")
				}
			}()
			f()
		}()
	}
}

func TestWindowPhases(t *testing.T) {
	w := Window{Warmup: 10, Measure: 20, Drain: 5}
	if w.Total() != 35 {
		t.Fatalf("Total = %d", w.Total())
	}
	cases := []struct {
		cycle int64
		want  bool
	}{{0, false}, {9, false}, {10, true}, {29, true}, {30, false}, {34, false}}
	for _, c := range cases {
		if got := w.InMeasure(c.cycle); got != c.want {
			t.Errorf("InMeasure(%d) = %v, want %v", c.cycle, got, c.want)
		}
	}
}
