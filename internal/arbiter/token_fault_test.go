package arbiter

import "testing"

// TestInvalidateStopsCirculation: a lost token neither moves nor can be
// captured until regenerated.
func TestInvalidateStopsCirculation(t *testing.T) {
	tok := NewGlobalToken(8, 2)
	tok.Invalidate()
	if !tok.Lost() {
		t.Fatal("Invalidate did not mark the token lost")
	}
	polled := 0
	for i := 0; i < 10; i++ {
		tok.Advance(func(off int) bool { polled++; return true }, nil)
	}
	if polled != 0 {
		t.Fatalf("lost token polled %d offsets", polled)
	}
	if _, held := tok.Held(); held {
		t.Fatal("lost token reports a holder")
	}
}

// TestRegenerateDuplicateGuard: Regenerate acts exactly once per loss —
// the guard refuses while a live token exists, so a spurious watchdog
// firing can never put two tokens on the loop.
func TestRegenerateDuplicateGuard(t *testing.T) {
	tok := NewGlobalToken(8, 2)

	// Live, free token: the watchdog fired while the original was merely
	// slow — the epoch filter must refuse.
	if tok.Regenerate() {
		t.Fatal("Regenerate accepted with the original token still circulating")
	}

	// Held token: also not lost; the guard must refuse.
	for i := 0; i < 8; i++ {
		tok.Advance(func(off int) bool { return off == 3 }, nil)
	}
	if _, held := tok.Held(); !held {
		t.Fatal("capture failed; test cannot proceed")
	}
	if tok.Regenerate() {
		t.Fatal("Regenerate accepted while a sender holds the token")
	}
	tok.Release()

	// Actually lost: the first Regenerate succeeds, the second refuses.
	tok.Invalidate()
	if !tok.Regenerate() {
		t.Fatal("Regenerate refused a genuinely lost token")
	}
	if tok.Lost() {
		t.Fatal("token still lost after regeneration")
	}
	if tok.Regenerate() {
		t.Fatal("second Regenerate duplicated the token")
	}

	// The regenerated token circulates from home again.
	captured := -1
	for i := 0; i < 8 && captured < 0; i++ {
		tok.Advance(func(off int) bool { captured = off; return true }, nil)
	}
	if captured < 0 {
		t.Fatal("regenerated token never resumed circulation")
	}
}

// TestInvalidateHeldPanics: a holder's token is latched electrically, not
// travelling the waveguide — killing it is a caller bug.
func TestInvalidateHeldPanics(t *testing.T) {
	tok := NewGlobalToken(4, 1)
	tok.Advance(func(off int) bool { return true }, nil)
	if _, held := tok.Held(); !held {
		t.Fatal("capture failed; test cannot proceed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Invalidate of a held token did not panic")
		}
	}()
	tok.Invalidate()
}
