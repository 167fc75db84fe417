package core

import (
	"photon/internal/arbiter"
	"photon/internal/router"
)

// wireCirculation is DHS with circulation: the receiver takes
// responsibility for every packet — one it cannot buffer is reinjected onto
// the data waveguide for another loop instead of being dropped, and the
// home "virtually consumes" its own next token to make room. Senders fire
// and forget, and no handshake waveguide exists.
func wireCirculation(n *Network, c *channel) {
	c.slot = arbiter.NewSlotEmitter(n.cfg.RoundTrip)
	// Reinjection suppresses this cycle's token emission.
	gate := func() bool {
		if n.suppressed.has(c.home) {
			n.suppressed.clear(c.home)
			return false
		}
		if n.faults != nil && n.faults.KillToken(c.home, n.now) {
			n.tokenFault(c)
			return false
		}
		return true
	}
	bindSlotArbitrate(n, c, gate, nil, nil)
	c.arrive = func(now int64, pkt *router.Packet) {
		if c.in.Accept(pkt) {
			pkt.AcceptedAt = now
			n.emit(EvAccept, pkt)
		} else {
			n.stats.Circulations++
			due, err := c.data.Reinject(now, pkt)
			if err != nil {
				panic(err)
			}
			n.calRow(n.arrCal, due).set(c.home)
			n.suppressed.set(c.home)
			n.emit(EvReinject, pkt)
		}
	}
	// No credit ledger to reconcile; the destroyed copy was the only one
	// (fire and forget), so the packet is gone unless it was a duplicate.
	c.onDataFault = n.classifyDataLoss
}
