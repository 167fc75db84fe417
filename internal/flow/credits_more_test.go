package flow

import (
	"strings"
	"testing"
)

func TestOccupiedAccessors(t *testing.T) {
	rc := NewRelayedCredits(3)
	rc.Spend()
	if err := rc.Arrive(); err != nil {
		t.Fatal(err)
	}
	if rc.occupied != 1 {
		t.Fatalf("relayed occupied = %d", rc.occupied)
	}
	sc := NewSlotCredits(3)
	sc.Emit()
	sc.Capture()
	if err := sc.Arrive(); err != nil {
		t.Fatal(err)
	}
	if sc.occupied != 1 {
		t.Fatalf("slot occupied = %d", sc.occupied)
	}
}

// TestInvariantMessages corrupts the counters directly and checks the
// invariant errors are informative for both failure classes.
func TestInvariantMessages(t *testing.T) {
	rc := NewRelayedCredits(2)
	rc.onToken = 5 // corrupt: sum mismatch
	if err := rc.Invariant(); err == nil || !strings.Contains(err.Error(), "leak") {
		t.Fatalf("relayed sum corruption not reported: %v", err)
	}
	rc2 := NewRelayedCredits(2)
	rc2.onToken = -1
	rc2.freed = 3 // sum ok (=2), component negative
	if err := rc2.Invariant(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("relayed negative component not reported: %v", err)
	}
	sc := NewSlotCredits(2)
	sc.free = 9
	if err := sc.Invariant(); err == nil || !strings.Contains(err.Error(), "leak") {
		t.Fatalf("slot sum corruption not reported: %v", err)
	}
	sc2 := NewSlotCredits(2)
	sc2.free = -1
	sc2.onTokens = 3
	if err := sc2.Invariant(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("slot negative component not reported: %v", err)
	}
}

// TestBufferOverflowDetected: Arrive beyond depth must error, for both
// disciplines, even when the in-flight counter was (wrongly) inflated.
func TestBufferOverflowDetected(t *testing.T) {
	rc := NewRelayedCredits(1)
	rc.inFlight = 2 // simulate a double-spend bug upstream
	if err := rc.Arrive(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Arrive(); err == nil {
		t.Fatal("relayed overflow not detected")
	}
	sc := NewSlotCredits(1)
	sc.inFlight = 2
	if err := sc.Arrive(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Arrive(); err == nil {
		t.Fatal("slot overflow not detected")
	}
}

func TestSlotCreditsDepthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slot depth did not panic")
		}
	}()
	NewSlotCredits(0)
}
