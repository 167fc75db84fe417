package flow

import (
	"testing"
	"testing/quick"
)

func TestRelayedCreditsLifecycle(t *testing.T) {
	c := NewRelayedCredits(4)
	if c.OnToken() != 4 {
		t.Fatalf("fresh token carries %d credits, want 4", c.OnToken())
	}
	// Spend two, deliver, eject, reimburse.
	if !c.Spend() || !c.Spend() {
		t.Fatal("spending with credits available failed")
	}
	if c.OnToken() != 2 {
		t.Fatalf("OnToken after two spends = %d", c.OnToken())
	}
	if err := c.Arrive(); err != nil {
		t.Fatal(err)
	}
	if err := c.Eject(); err != nil {
		t.Fatal(err)
	}
	// The freed credit is NOT yet on the token — the paper's pathology.
	if c.OnToken() != 2 {
		t.Fatalf("credit boarded the token before a home pass")
	}
	c.PassHome()
	if c.OnToken() != 3 {
		t.Fatalf("OnToken after home pass = %d, want 3", c.OnToken())
	}
	if err := c.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRelayedCreditsExhaustion(t *testing.T) {
	c := NewRelayedCredits(2)
	c.Spend()
	c.Spend()
	if c.Spend() {
		t.Fatal("spend from an empty token succeeded")
	}
}

func TestRelayedCreditsErrors(t *testing.T) {
	c := NewRelayedCredits(2)
	if err := c.Arrive(); err == nil {
		t.Fatal("arrival without in-flight credit accepted")
	}
	if err := c.Eject(); err == nil {
		t.Fatal("eject from empty buffer accepted")
	}
}

func TestRelayedCreditsPanicOnBadDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero depth did not panic")
		}
	}()
	NewRelayedCredits(0)
}

func TestSlotCreditsLifecycle(t *testing.T) {
	c := NewSlotCredits(3)
	if !c.CanEmit() {
		t.Fatal("fresh pool cannot emit")
	}
	c.Emit()
	c.Emit()
	c.Emit()
	if c.CanEmit() {
		t.Fatal("emitted past the depth")
	}
	c.Capture() // one token grabbed
	c.Expire()  // one came back unused
	if !c.CanEmit() {
		t.Fatal("expired token's credit not reusable")
	}
	if err := c.Arrive(); err != nil {
		t.Fatal(err)
	}
	if err := c.Eject(); err != nil {
		t.Fatal(err)
	}
	if err := c.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestSlotCreditsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"emit-empty":    func() { c := NewSlotCredits(1); c.Emit(); c.Emit() },
		"capture-empty": func() { c := NewSlotCredits(1); c.Capture() },
		"expire-empty":  func() { c := NewSlotCredits(1); c.Expire() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRelayedCreditsConservationProperty hammers the relayed-credit state
// machine with random legal event sequences and checks the conservation
// invariant after every step — the property that guarantees the home
// buffer can never overflow under Token Channel.
func TestRelayedCreditsConservationProperty(t *testing.T) {
	f := func(depthRaw uint8, ops []uint8) bool {
		depth := int(depthRaw%8) + 1
		c := NewRelayedCredits(depth)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				c.Spend() // may fail; fine
			case 1:
				if c.inFlight > 0 {
					if err := c.Arrive(); err != nil {
						return false
					}
				}
			case 2:
				if c.occupied > 0 {
					if err := c.Eject(); err != nil {
						return false
					}
				}
			case 3:
				c.PassHome()
			}
			if err := c.Invariant(); err != nil {
				return false
			}
			if c.occupied > depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotCreditsConservationProperty is the same property for Token Slot.
func TestSlotCreditsConservationProperty(t *testing.T) {
	f := func(depthRaw uint8, ops []uint8) bool {
		depth := int(depthRaw%8) + 1
		c := NewSlotCredits(depth)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if c.CanEmit() {
					c.Emit()
				}
			case 1:
				if c.onTokens > 0 {
					if op%2 == 0 {
						c.Capture()
					} else {
						c.Expire()
					}
				}
			case 2:
				if c.inFlight > 0 {
					if err := c.Arrive(); err != nil {
						return false
					}
				}
			case 3:
				if c.occupied > 0 {
					if err := c.Eject(); err != nil {
						return false
					}
				}
			}
			if err := c.Invariant(); err != nil {
				return false
			}
			if c.occupied > depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
