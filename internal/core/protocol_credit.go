package core

import (
	"photon/internal/arbiter"
	"photon/internal/flow"
	"photon/internal/router"
	"photon/internal/sim"
)

// The credit-based baselines (Vantrease MICRO'09): delivery is guaranteed
// by construction, so senders fire and forget, and every arrival MUST fit
// in the home buffer — a rejection is a protocol bug, not backpressure.

// creditLedger is what flow.RelayedCredits and flow.SlotCredits have in
// common: the receiver-side half of the ledger, which both credit schemes
// drive identically.
type creditLedger interface {
	Arrive() error
	Eject() error
	Invariant() error
}

// wireCredits assigns the hooks both credit schemes share: arrival claims
// the reserved buffer slot, ejection frees it, and the ledger's own
// conservation law is the per-cycle invariant.
func wireCredits(n *Network, c *channel, led creditLedger, label string) {
	c.arrive = bindCreditArrive(n, c, led.Arrive, label)
	c.onEject = func() { must(led.Eject()) }
	c.onDataFault = func(pkt *router.Packet) {
		// The scheme reserved a buffer slot for this arrival; the slot is
		// claimed and immediately freed so the credit ledger stays exact
		// (the credit travels home through the usual reimbursement path).
		must(led.Arrive())
		must(led.Eject())
		n.classifyDataLoss(pkt)
	}
	c.invariant = led.Invariant
}

// bindCreditArrive builds the arrival handler shared by both credit
// schemes: claim the reserved buffer slot and accept — the credit ledger
// guarantees space.
// Bound once per channel at construction; never inline (see bindGlobalSweep).
//
//go:noinline
func bindCreditArrive(n *Network, c *channel, claim func() error, label string) func(now int64, pkt *router.Packet) {
	return func(now int64, pkt *router.Packet) {
		must(claim())
		if !c.in.Accept(pkt) {
			panic("core: credit-guaranteed arrival rejected by home buffer (" + label + ")")
		}
		pkt.AcceptedAt = now
		n.emit(EvAccept, pkt)
	}
}

// wireCreditGlobal is Token Channel: one relayed token per channel
// carrying the home node's credit count; capture requires credits aboard,
// each send spends one, and passing home reimburses freed credits.
func wireCreditGlobal(n *Network, c *channel) {
	c.glob = arbiter.NewGlobalToken(n.cfg.Nodes, n.geom.NodesPerCycle())
	rc := flow.NewRelayedCredits(n.cfg.BufferDepth)
	bindGlobalArbitrate(n, c, bindGlobalSweep(n, c, rc), rc.PassHome)
	c.launchHeld = bindHeldLaunch(n, c, rc)
	wireCredits(n, c, rc, "token channel")
}

// wireCreditSlot is Token Slot: the home node emits one-credit tokens
// while it has credits; a captured token is both grant and buffer
// reservation.
func wireCreditSlot(n *Network, c *channel) {
	c.slot = arbiter.NewSlotEmitter(n.cfg.RoundTrip)
	sc := flow.NewSlotCredits(n.cfg.BufferDepth)
	if n.faults != nil {
		// Recovery state: a credit that left home aboard a token that died
		// is reclaimed at the token's nominal expiry window.
		c.regen = sim.NewDelayLine[int64](n.cfg.RoundTrip + 2)
	}
	// Emission is gated on credits.
	gate := func() bool {
		if !sc.CanEmit() {
			return false
		}
		sc.Emit()
		if n.faults != nil && n.faults.KillToken(c.home, n.now) {
			// The token dies leaving home with a credit aboard; the
			// credit is stranded until the watchdog reclaims it at the
			// token's nominal expiry window (recovery enabled), or
			// forever (recovery disabled — a real availability loss).
			n.tokenFault(c)
			return false
		}
		return true
	}
	bindSlotArbitrate(n, c, gate, sc, sc.Expire)
	wireCredits(n, c, sc, "token slot")
}
