package core

import "photon/internal/router"

// EventType labels a protocol-level packet event.
type EventType int

// The observable protocol events, in the order a packet can experience
// them.
const (
	// EvEnqueue: the packet entered its output queue after the injection
	// pipeline.
	EvEnqueue EventType = iota
	// EvLaunch: the packet was launched onto an optical data channel
	// (fires again for retransmissions).
	EvLaunch
	// EvAccept: the home node buffered the packet.
	EvAccept
	// EvDrop: the home node had no buffer slot; the packet was discarded
	// and a NACK issued (handshake schemes).
	EvDrop
	// EvReinject: the home node put the packet back onto its own channel
	// (DHS with circulation).
	EvReinject
	// EvAck / EvNack: the handshake answer reached the sender.
	EvAck
	EvNack
	// EvDeliver: the packet was ejected to the destination's cores.
	EvDeliver
	// EvInject: a core handed the packet to its router (fires before
	// EvEnqueue; declared last among the seed events to keep historical
	// event numbering stable).
	EvInject

	// Fault-injection events (appended after EvInject for the same
	// numbering-stability reason; none of them can fire on a fault-free
	// run, so seed digests are untouched).

	// EvFault: the injector destroyed something — Aux encodes the fault
	// class and the channel/node element (see faultAux). For data faults
	// the discarded packet is attached; token/pulse/stall faults are
	// packet-less.
	EvFault
	// EvTimeout: a sender's retransmit timer expired; the attached packet
	// is marked for retransmission.
	EvTimeout
	// EvTokenRegen: a home node regenerated a lost arbitration token
	// (global watchdog re-emission, or a slot credit reclaimed at its
	// nominal expiry window). Aux is the home id.
	EvTokenRegen
	// EvDupDrop: the home node recognised the arrival as a duplicate of an
	// already-accepted packet (its ACK had been lost) and discarded it,
	// re-issuing the ACK.
	EvDupDrop

	// Tap-only events (appended after EvDupDrop, same numbering-stability
	// reason). These fire only toward an attached Tracer and are never
	// folded into the run digest: they exist for latency attribution, not
	// for the determinism fingerprint, and arming a tap must reproduce
	// every recorded digest bit for bit. firstTapOnly marks the boundary.

	// EvHeadReady: the packet became head-eligible for channel arbitration
	// (the cycle Packet.ReadyAt records; fires once per packet).
	EvHeadReady
	// EvTokenCapture: a node captured the channel's arbitration token (a
	// relayed global token or a distributed slot grant). Packet-less; Aux
	// is tokenAux(node, home).
	EvTokenCapture
	// EvTokenRelease: a global-token holder released the token back onto
	// the arbitration loop. Packet-less; Aux is tokenAux(node, home).
	EvTokenRelease
	// EvSetasideEnter: the launched packet was parked in a setaside slot
	// to await its handshake (Setaside policy only).
	EvSetasideEnter
	// EvSetasideExit: the packet left its setaside slot (its ACK arrived).
	// A NACKed packet stays in its slot awaiting retransmission and exits
	// only when a later copy is finally ACKed.
	EvSetasideExit
	// EvRetire: the engine's last holder of the packet let go of it, just
	// before the packet is recycled. It fires once per packet, after every
	// other event of that id — a duplicate in flight and a sender's
	// retained copy are holders too — so a tracer can drop its per-packet
	// state here instead of guessing when no more events can come.
	// Packets still held when a run ends never retire.
	EvRetire
)

// firstTapOnly is the first tap-only event type: everything below it is
// canonical (digest-folded), everything from it on feeds only the tap.
const firstTapOnly = EvHeadReady

func (e EventType) String() string {
	switch e {
	case EvEnqueue:
		return "enqueue"
	case EvLaunch:
		return "launch"
	case EvAccept:
		return "accept"
	case EvDrop:
		return "drop"
	case EvReinject:
		return "reinject"
	case EvAck:
		return "ack"
	case EvNack:
		return "nack"
	case EvDeliver:
		return "deliver"
	case EvInject:
		return "inject"
	case EvFault:
		return "fault"
	case EvTimeout:
		return "timeout"
	case EvTokenRegen:
		return "token-regen"
	case EvDupDrop:
		return "dup-drop"
	case EvHeadReady:
		return "head-ready"
	case EvTokenCapture:
		return "token-capture"
	case EvTokenRelease:
		return "token-release"
	case EvSetasideEnter:
		return "setaside-enter"
	case EvSetasideExit:
		return "setaside-exit"
	case EvRetire:
		return "retire"
	default:
		return "event?"
	}
}

// Event is one protocol observation. Packet is nil for the packet-less
// fault events (token/pulse/stall EvFault, EvTokenRegen), whose Aux field
// carries the element instead.
type Event struct {
	Cycle  int64
	Type   EventType
	Packet *router.Packet
	Aux    uint64
}

// Tracer is a per-run protocol event sink: it receives the complete
// lifecycle stream — every canonical digest event plus the tap-only
// arbitration-side events (EvHeadReady, EvTokenCapture/Release,
// EvSetasideEnter/Exit) the digest never needed. Observe fires inline
// during Step, so implementations must be fast, must not mutate the
// network, and must not retain the Event's Packet pointer beyond the call:
// the engine keeps mutating the packet and, once its last holder lets go,
// recycles it for a later injection — copy what outlives the call.
type Tracer interface {
	Observe(Event)
}

// SetTracer attaches (or, with nil, detaches) the run's event tap. A nil
// tap costs nothing on the hot path beyond a pointer test, and an armed
// tap never perturbs the run digest: tap-only events are not folded, so
// traced and untraced runs of one (Config, traffic) pair are bit-identical.
func (n *Network) SetTracer(t Tracer) {
	n.tap = t
}

// emit folds the event into the run digest and fires the tap. The
// digest fold is unconditional: the fingerprint must cover every run,
// traced or not, or repeat runs could not be compared.
func (n *Network) emit(t EventType, p *router.Packet) {
	d := &n.stats.digest
	d.observe(eventHash(d.prefixAt(n.now), t, p))
	if n.tap != nil {
		n.tap.Observe(Event{Cycle: n.now, Type: t, Packet: p})
	}
}

// emitMeta is emit for packet-less events: the digest folds the aux word
// where a packet's identity would go, so token and stall faults are just
// as canonical — and just as digest-visible — as packet events.
func (n *Network) emitMeta(t EventType, aux uint64) {
	d := &n.stats.digest
	d.observe(metaHash(d.prefixAt(n.now), t, aux))
	if n.tap != nil {
		n.tap.Observe(Event{Cycle: n.now, Type: t, Aux: aux})
	}
}

// emitTap fires a tap-only packet event: tracer-visible, digest-inert.
func (n *Network) emitTap(t EventType, p *router.Packet) {
	if n.tap != nil {
		n.tap.Observe(Event{Cycle: n.now, Type: t, Packet: p})
	}
}

// emitTapMeta fires a tap-only packet-less event (token motion).
func (n *Network) emitTapMeta(t EventType, aux uint64) {
	if n.tap != nil {
		n.tap.Observe(Event{Cycle: n.now, Type: t, Aux: aux})
	}
}

// tokenAux encodes a token capture/release event's (node, home) pair into
// the tap aux word; TokenAux decodes it for trace consumers.
func tokenAux(node, home int) uint64 {
	return uint64(uint32(node))<<32 | uint64(uint32(home))
}

// TokenAux decodes an EvTokenCapture / EvTokenRelease aux word into the
// capturing (or releasing) node id and the channel home id.
func TokenAux(aux uint64) (node, home int) {
	return int(uint32(aux >> 32)), int(uint32(aux))
}
