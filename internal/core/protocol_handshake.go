package core

import (
	"fmt"

	"photon/internal/arbiter"
	"photon/internal/fault"
	"photon/internal/ring"
	"photon/internal/router"
)

// The paper's handshake schemes: ACK/NACK flow control over a dedicated
// handshake waveguide. The sender retains each packet until its answer
// returns (HoldHead pins the queue head; Setaside parks it in private
// slots), which doubles as retransmission state — the property that makes
// pulse and data faults recoverable where fire-and-forget schemes lose
// the packet outright.

// wireHandshake attaches what all four handshake schemes share: the
// handshake waveguide (under fault injection, with its pulse-loss filter)
// and the receiver and sender sides of the ACK/NACK exchange. There is no
// credit ledger, so a data fault only needs the packet's fate classified
// and there is no ejection hook or invariant.
func wireHandshake(n *Network, c *channel) {
	c.hs = ring.NewHandshakeChannel(n.geom)
	if n.faults != nil {
		c.hs.SetLoss(n.pulseLoss(c))
	}
	c.arrive = bindHandshakeArrive(n, c)
	c.handshake = bindHandshakeDelivery(n, c)
	c.onDataFault = n.classifyDataLoss
}

// pulseLoss builds channel c's handshake-pulse fault filter.
func (n *Network) pulseLoss(c *channel) ring.LossFunc {
	return func(now int64, a ring.Ack) bool {
		if !n.faults.KillPulse(c.home, now) {
			return false
		}
		n.stats.FaultsInjected++
		if a.Positive {
			n.stats.AcksLost++
		} else {
			n.stats.NacksLost++
		}
		n.emitMeta(EvFault, faultAux(fault.PulseLoss, c.home))
		return true
	}
}

// bindHandshakeArrive builds the arrival handler shared by every
// handshake scheme: accept or drop+NACK, with duplicate detection for
// timeout-recovery copies.
// Bound once per channel at construction; never inline (see bindGlobalSweep).
//
//go:noinline
func bindHandshakeArrive(n *Network, c *channel) func(now int64, pkt *router.Packet) {
	return func(now int64, pkt *router.Packet) {
		off := n.geom.Offset(c.home, pkt.Src)
		queue := int(pkt.Tag>>40) % n.cfg.CoresPerNode
		if pkt.AcceptedAt >= 0 {
			// Duplicate of an already-accepted packet: its ACK was lost and
			// the sender's timeout re-sent a copy. The home's dedup registry
			// recognises the id, discards the copy, and repeats the ACK.
			n.dupsInFlight--
			if n.dupsInFlight < 0 {
				panic("core: negative duplicate-in-flight count")
			}
			c.dupsDiscarded++
			n.stats.DupsDiscarded++
			n.emit(EvDupDrop, pkt)
			due := c.hs.Send(now, off, ring.Ack{To: pkt.Src, PacketID: pkt.ID, Queue: queue, Positive: true})
			n.calRow(n.pulseCal, due).set(c.home)
			n.release(pkt) // the discarded copy
			return
		}
		accepted := c.in.Accept(pkt)
		if accepted {
			pkt.AcceptedAt = now
			n.emit(EvAccept, pkt)
		} else {
			n.stats.Drops++
			n.orphans++
			n.emit(EvDrop, pkt)
		}
		due := c.hs.Send(now, off, ring.Ack{To: pkt.Src, PacketID: pkt.ID, Queue: queue, Positive: accepted})
		n.calRow(n.pulseCal, due).set(c.home)
		if !accepted {
			n.release(pkt) // the dropped copy; the sender still holds its own
		}
	}
}

// bindHandshakeDelivery builds the phase-2 closure applying ACK/NACK
// pulses that reach senders this cycle. The pulse's Queue field addresses
// the owning output port directly — an answer the port cannot resolve is
// a protocol bug, not a search miss.
// Bound once per channel at construction; never inline (see bindGlobalSweep).
//
//go:noinline
func bindHandshakeDelivery(n *Network, c *channel) func(now int64) {
	return func(now int64) {
		for _, ack := range c.hs.Deliver(now) {
			nd := &n.nodes[ack.To]
			q := &n.queues[ack.To*n.cfg.CoresPerNode+ack.Queue]
			var err error
			var pkt *router.Packet
			if ack.Positive {
				pkt, err = q.out.Ack(ack.PacketID)
			} else {
				pkt, err = q.out.Nack(ack.PacketID)
			}
			if err != nil {
				panic(fmt.Sprintf("core: handshake for packet %d at node %d: %v", ack.PacketID, ack.To, err))
			}
			if ack.Positive {
				n.emit(EvAck, pkt)
				if q.out.Policy() == router.Setaside {
					// The ACK released the packet's setaside slot.
					n.emitTap(EvSetasideExit, pkt)
				}
			} else {
				n.emit(EvNack, pkt)
			}
			n.updateQueueWant(nd, q)
			if ack.Positive {
				n.release(pkt) // the sender's retained copy
			}
		}
	}
}

// wireHandshakeGlobal is GHS (± setaside): a credit-free relayed global
// token grants the channel; the receiver answers every flit.
func wireHandshakeGlobal(n *Network, c *channel) {
	c.glob = arbiter.NewGlobalToken(n.cfg.Nodes, n.geom.NodesPerCycle())
	bindGlobalArbitrate(n, c, bindGlobalSweep(n, c, nil), nil)
	c.launchHeld = bindHeldLaunch(n, c, nil)
	wireHandshake(n, c)
}

// wireHandshakeSlot is DHS (± setaside): the home emits a fresh token
// every cycle, unconditionally (unless it dies leaving home under fault
// injection); one packet per captured token; the receiver answers every
// flit.
func wireHandshakeSlot(n *Network, c *channel) {
	c.slot = arbiter.NewSlotEmitter(n.cfg.RoundTrip)
	var gate func() bool // always open on a fault-free run
	if n.faults != nil {
		gate = func() bool {
			if n.faults.KillToken(c.home, n.now) {
				n.tokenFault(c)
				return false
			}
			return true
		}
	}
	bindSlotArbitrate(n, c, gate, nil, nil)
	wireHandshake(n, c)
}
