// Package flow implements the flow-control side of the schemes: the two
// credit-accounting disciplines of the token-based baselines (credits
// piggybacked on a relayed token for Token Channel; one-credit-per-token
// for Token Slot) and the sender-side handshake bookkeeping shared by GHS
// and DHS.
//
// Both credit types maintain an explicit conservation invariant — every
// buffer slot of the home node is, at all times, exactly one of: free at
// home, riding a token, promised to an in-flight packet, or occupied. The
// network asserts the invariant every cycle in race-detector builds and the
// property tests hammer it with random event sequences; a violated
// invariant is how double-spent credits (the classic flow-control bug)
// surface.
package flow

import "fmt"

// RelayedCredits is Token Channel's credit discipline: the home node's free
// buffer count rides on the single arbitration token, and buffer slots
// freed at the home can only rejoin the token when it sweeps past home
// (paper Fig. 2(a) — the source of the 17-cycle pathology).
type RelayedCredits struct {
	depth    int
	onToken  int // credits currently riding the token
	freed    int // freed at home, waiting for the token to pass
	inFlight int // packets sent under a credit, not yet arrived
	occupied int // home buffer slots in use
}

// NewRelayedCredits starts with all depth credits riding the token (it is
// emitted by home fully charged).
func NewRelayedCredits(depth int) *RelayedCredits {
	if depth < 1 {
		panic("flow: credit depth must be >= 1")
	}
	return &RelayedCredits{depth: depth, onToken: depth}
}

// OnToken reports the credits currently available to token holders.
func (c *RelayedCredits) OnToken() int { return c.onToken }

// Spend consumes one token credit for a packet launch; it reports false
// when the token is empty (the holder must not send).
func (c *RelayedCredits) Spend() bool {
	if c.onToken == 0 {
		return false
	}
	c.onToken--
	c.inFlight++
	return true
}

// Arrive accounts a packet landing in the home buffer. The credit
// discipline guarantees space; an error here is a protocol bug.
func (c *RelayedCredits) Arrive() error {
	if c.inFlight == 0 {
		return fmt.Errorf("flow: arrival without a matching in-flight credit")
	}
	c.inFlight--
	c.occupied++
	if c.occupied > c.depth {
		return fmt.Errorf("flow: home buffer overflow (%d > depth %d) under credit flow control", c.occupied, c.depth)
	}
	return nil
}

// Eject frees one buffer slot at home; the credit waits in the freed pool
// until the token passes.
func (c *RelayedCredits) Eject() error {
	if c.occupied == 0 {
		return fmt.Errorf("flow: eject from empty home buffer")
	}
	c.occupied--
	c.freed++
	return nil
}

// PassHome reimburses the token with every credit freed since its last
// visit; called when the token sweeps past the home position.
func (c *RelayedCredits) PassHome() {
	c.onToken += c.freed
	c.freed = 0
}

// Invariant verifies credit conservation.
func (c *RelayedCredits) Invariant() error {
	if sum := c.onToken + c.freed + c.inFlight + c.occupied; sum != c.depth {
		return fmt.Errorf("flow: relayed credit leak: token %d + freed %d + inflight %d + occupied %d = %d, want %d",
			c.onToken, c.freed, c.inFlight, c.occupied, sum, c.depth)
	}
	if c.onToken < 0 || c.freed < 0 || c.inFlight < 0 || c.occupied < 0 {
		return fmt.Errorf("flow: negative relayed credit component: %+v", *c)
	}
	return nil
}

// SlotCredits is Token Slot's credit discipline: each emitted token carries
// exactly one credit. The home may only emit a token when it holds a free
// credit; tokens that complete the loop uncaptured return their credit;
// captured tokens convert the credit into an in-flight packet reservation.
type SlotCredits struct {
	depth    int
	free     int // credits held by home, available to mint tokens
	onTokens int // credits riding live tokens
	inFlight int // credits attached to in-flight packets
	occupied int // home buffer slots in use
}

// NewSlotCredits starts with all credits free at home.
func NewSlotCredits(depth int) *SlotCredits {
	if depth < 1 {
		panic("flow: credit depth must be >= 1")
	}
	return &SlotCredits{depth: depth, free: depth}
}

// CanEmit reports whether home holds a credit to mint a token with.
func (c *SlotCredits) CanEmit() bool { return c.free > 0 }

// Emit mints a token: one free credit starts riding it. Callers gate on
// CanEmit; emitting while starved is a protocol bug.
func (c *SlotCredits) Emit() {
	if c.free == 0 {
		panic("flow: token slot emitted without a free credit")
	}
	c.free--
	c.onTokens++
}

// Capture converts a riding credit into an in-flight packet reservation.
func (c *SlotCredits) Capture() {
	if c.onTokens == 0 {
		panic("flow: token slot captured with no riding credit")
	}
	c.onTokens--
	c.inFlight++
}

// Expire returns an uncaptured token's credit to the free pool.
func (c *SlotCredits) Expire() {
	if c.onTokens == 0 {
		panic("flow: token slot expired with no riding credit")
	}
	c.onTokens--
	c.free++
}

// Arrive accounts a packet landing in the home buffer.
func (c *SlotCredits) Arrive() error {
	if c.inFlight == 0 {
		return fmt.Errorf("flow: arrival without a matching slot credit")
	}
	c.inFlight--
	c.occupied++
	if c.occupied > c.depth {
		return fmt.Errorf("flow: home buffer overflow (%d > depth %d) under slot credits", c.occupied, c.depth)
	}
	return nil
}

// Eject frees one buffer slot; the credit is immediately available for a
// new token (unlike RelayedCredits there is no wait for a token pass —
// distributed arbitration's advantage).
func (c *SlotCredits) Eject() error {
	if c.occupied == 0 {
		return fmt.Errorf("flow: eject from empty home buffer")
	}
	c.occupied--
	c.free++
	return nil
}

// Invariant verifies credit conservation.
func (c *SlotCredits) Invariant() error {
	if sum := c.free + c.onTokens + c.inFlight + c.occupied; sum != c.depth {
		return fmt.Errorf("flow: slot credit leak: free %d + tokens %d + inflight %d + occupied %d = %d, want %d",
			c.free, c.onTokens, c.inFlight, c.occupied, sum, c.depth)
	}
	if c.free < 0 || c.onTokens < 0 || c.inFlight < 0 || c.occupied < 0 {
		return fmt.Errorf("flow: negative slot credit component: %+v", *c)
	}
	return nil
}
