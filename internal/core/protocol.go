package core

import (
	"math/bits"

	"photon/internal/arbiter"
	"photon/internal/fault"
	"photon/internal/flow"
	"photon/internal/phys"
	"photon/internal/router"
)

// ProtocolSpec is one registry row: a scheme's identity and static traits,
// plus the function that wires its machinery into a channel. Everything
// the rest of the system knows about a scheme — names, grouping, retention
// policy, hardware profile — is read from here, so a new row makes the
// scheme appear in Schemes(), config parsing, the experiment groups, and
// the verification batteries without touching the engine.
type ProtocolSpec struct {
	Scheme    Scheme
	Name      string // CLI name; Scheme.String() returns this
	PaperName string // label used in the paper's figures

	Global      bool // global (relayed token) vs distributed arbitration
	Handshake   bool // ACK/NACK flow control over a handshake waveguide
	CreditBased bool // credit flow control
	Circulating bool // receiver reinjects instead of dropping

	// SendPolicy is the sender-side retention policy (what happens to a
	// packet at launch).
	SendPolicy router.SendPolicy
	// Hardware is the scheme's optical hardware profile (Table I, power).
	Hardware phys.SchemeHardware

	// wire builds channel c's scheme-specific machinery — token arbiter,
	// credit ledger, handshake waveguide, and their fault-injection
	// attachments — and assigns the channel's phase hooks. NewNetwork calls
	// it once per channel; Step only ever calls the hooks it bound, so a
	// scheme costs nothing on the hot path of the others. A hook the scheme
	// has no behaviour for stays nil.
	//
	// Hook lifecycle within one cycle (phase order is the determinism
	// contract in DESIGN.md):
	//
	//	arrive      phase 1: the packet landing at the home node this cycle
	//	handshake   phase 2: ACK/NACK pulses reaching senders (nil = no waveguide)
	//	onEject     phase 3: per-packet credit release at ejection (nil = creditless)
	//	advance     phase 4: token motion, capture, and token-recovery watchdogs
	//	launchHeld  phase 5: sends under a held global token (nil = distributed)
	//
	// onDataFault and invariant run outside the phase sequence: onDataFault
	// reconciles the flow-control ledger when a fault destroys an arriving
	// flit and classifies the packet's fate, and invariant is the per-cycle
	// conservation check (nil = no checkable ledger).
	wire func(n *Network, c *channel)
}

// protocols is the scheme registry, indexed by Scheme. The wire functions
// live in the protocol_*.go files, one per family.
var protocols = [...]ProtocolSpec{
	TokenChannel: {
		Scheme:      TokenChannel,
		Name:        "token-channel",
		PaperName:   "Token Channel",
		Global:      true,
		CreditBased: true,
		SendPolicy:  router.FireAndForget,
		Hardware:    phys.SchemeHardware{Name: "Token Channel", Arbitration: phys.GlobalArbitration, TokenCreditBits: 6},
		wire:        wireCreditGlobal,
	},
	TokenSlot: {
		Scheme:      TokenSlot,
		Name:        "token-slot",
		PaperName:   "Token Slot",
		CreditBased: true,
		SendPolicy:  router.FireAndForget,
		Hardware:    phys.SchemeHardware{Name: "Token Slot", Arbitration: phys.DistributedArbitration},
		wire:        wireCreditSlot,
	},
	GHS: {
		Scheme:     GHS,
		Name:       "ghs",
		PaperName:  "GHS",
		Global:     true,
		Handshake:  true,
		SendPolicy: router.HoldHead,
		Hardware:   phys.SchemeHardware{Name: "GHS", Arbitration: phys.GlobalArbitration, Handshake: true},
		wire:       wireHandshakeGlobal,
	},
	GHSSetaside: {
		Scheme:     GHSSetaside,
		Name:       "ghs-setaside",
		PaperName:  "GHS w/ Setaside",
		Global:     true,
		Handshake:  true,
		SendPolicy: router.Setaside,
		Hardware:   phys.SchemeHardware{Name: "GHS_SetBuf", Arbitration: phys.GlobalArbitration, Handshake: true},
		wire:       wireHandshakeGlobal,
	},
	DHS: {
		Scheme:     DHS,
		Name:       "dhs",
		PaperName:  "DHS",
		Handshake:  true,
		SendPolicy: router.HoldHead,
		Hardware:   phys.SchemeHardware{Name: "DHS", Arbitration: phys.DistributedArbitration, Handshake: true},
		wire:       wireHandshakeSlot,
	},
	DHSSetaside: {
		Scheme:     DHSSetaside,
		Name:       "dhs-setaside",
		PaperName:  "DHS w/ Setaside",
		Handshake:  true,
		SendPolicy: router.Setaside,
		Hardware:   phys.SchemeHardware{Name: "DHS_SetBuf", Arbitration: phys.DistributedArbitration, Handshake: true},
		wire:       wireHandshakeSlot,
	},
	DHSCirculation: {
		Scheme:      DHSCirculation,
		Name:        "dhs-circulation",
		PaperName:   "DHS w/ Circulation",
		Circulating: true,
		SendPolicy:  router.FireAndForget,
		Hardware:    phys.SchemeHardware{Name: "DHS_Cir", Arbitration: phys.DistributedArbitration, Circulation: true},
		wire:        wireCirculation,
	},
}

// LookupProtocol returns the registry row for s.
func LookupProtocol(s Scheme) (ProtocolSpec, bool) {
	if s < 0 || int(s) >= len(protocols) {
		return ProtocolSpec{}, false
	}
	return protocols[s], true
}

// RegisteredProtocols returns every registry row in presentation order
// (ascending Scheme value, the order the paper introduces them). The slice
// is the registry itself: read it, do not write to it.
func RegisteredProtocols() []ProtocolSpec { return protocols[:] }

// --- shared hook builders -------------------------------------------------
//
// The five families assemble their hooks from these builders, so the
// engine-visible behaviour of each phase lives in exactly one place.
//
// The sweep builders run inside the arbiters' token-scan inner loop — the
// hottest code in the simulator. Each sweep call covers one token's whole
// segment: the closure maps the segment's offsets to a node-id range and
// hops between the requesting nodes in it a want-mask word at a time
// (bits.TrailingZeros64, no modulo, no per-offset closure call), and only
// a node that actually wants the channel pays for the full eligibility
// checks. The check order within a node — stall, want, port-busy,
// credits, fairness — is digest-equivalent to the historic per-offset
// order because the stall and want predicates are both pure; the first
// stateful call (Fairness.Allow, which counts yields) still happens
// exactly when it always did. A family with novel capture semantics binds
// its own arbiter.SweepFunc instead of reusing these.

// bindGlobalSweep builds the segment-sweep closure for a relayed global
// token. rc, when non-nil, vetoes capture of a token with no credits
// aboard (Token Channel: an empty token cannot authorise a send).
//
// go:noinline on both sweep builders: if the builder is inlined into the
// scheme's wire function, the compiler re-parents the returned closure
// and stops inlining the closure's own callees (the requester-set scan,
// the fairness filter, the credit ledger) — a measurable hit to the
// token-scan loop.
//
//go:noinline
func bindGlobalSweep(n *Network, c *channel, rc *flow.RelayedCredits) arbiter.SweepFunc {
	want := n.wantRow(c.home)
	nodes := n.cfg.Nodes
	return func(start, end int) int {
		// Offsets [start, end) are ids [home+start, home+end), which wrap
		// past the last node at most once; within each piece ascending id
		// is ascending offset.
		lo, hi, base := c.home+start, c.home+end, 0
		for lo < hi {
			if lo >= nodes {
				lo, hi, base = lo-nodes, hi-nodes, nodes
			}
			top := min(hi, nodes)
			for wi := lo >> 6; wi<<6 < top; wi++ {
				w := want[wi]
				if wi == lo>>6 {
					w &= ^uint64(0) << uint(lo&63)
				}
				if top < (wi+1)<<6 {
					w &= 1<<uint(top&63) - 1
				}
				for ; w != 0; w &= w - 1 {
					if id := wi<<6 | bits.TrailingZeros64(w); n.captureGlobal(c, id, rc) {
						return id + base - c.home
					}
				}
			}
			lo = top
		}
		return -1
	}
}

// captureGlobal applies the global-token eligibility checks and capture
// effects for node id, which already wants channel c.
func (n *Network) captureGlobal(c *channel, id int, rc *flow.RelayedCredits) bool {
	nd := &n.nodes[id]
	if n.faults != nil && n.faults.Stalled(id) {
		// Resonator drift: the node's rings are off-channel and cannot
		// divert the token, however badly it wants one.
		return false
	}
	if nd.granted || nd.holding >= 0 {
		return false
	}
	if rc != nil && rc.OnToken() == 0 {
		return false
	}
	if !c.fair.Allow(id) {
		return false
	}
	c.fair.OnCapture(id)
	nd.holding = c.home
	n.held.set(c.home)
	n.emitTapMeta(EvTokenCapture, tokenAux(id, c.home))
	return true
}

// slotScan runs the requester-driven capture scan for one distributed
// channel at cycle now: it hops between the channel's requesting nodes in
// downstream order via the want bitset, maps each one's offset to the age
// of the token whose segment covers it, and probes capture only when that
// token is still live. This inverts the arbiter's per-token segment
// iteration — O(requesters) live-token probes instead of O(roundTrip)
// segment sweeps — while making the identical stateful calls in the
// identical order: ages ascend exactly as offsets do (segments partition
// the loop in downstream order), the want and LiveAt predicates are pure,
// and a consumed token answers LiveAt false for the rest of its segment
// just as the historic sweep stopped scanning a segment after its capture.
//
// Two passes keep the downstream-from-home probe order: ids above home
// first (offset = id-home), then the wrap-around ids below home (offset =
// id+nodes-home) — ascending id equals ascending offset within each pass.
// The word holding home's own bit is split between the passes.
// See bindGlobalSweep for why this must not inline.
//
//go:noinline
func (n *Network) slotScan(c *channel, now int64, sc *flow.SlotCredits) {
	nodes := n.cfg.Nodes
	per := n.geom.NodesPerCycle()
	home := c.home
	mask := n.wantRow(home)
	hw := home >> 6
	below := uint64(1)<<uint(home&63) - 1 // ids of word hw before home
	for wi := hw; wi < len(mask); wi++ {
		w := mask[wi]
		if wi == hw {
			w &= ^below << 1
		}
		for ; w != 0; w &= w - 1 {
			id := wi<<6 | bits.TrailingZeros64(w)
			n.slotProbe(c, now, id, id-home, per, sc)
		}
	}
	for wi := 0; wi <= hw; wi++ {
		w := mask[wi]
		if wi == hw {
			w &= below
		}
		for ; w != 0; w &= w - 1 {
			id := wi<<6 | bits.TrailingZeros64(w)
			n.slotProbe(c, now, id, id+nodes-home, per, sc)
		}
	}
}

// slotProbe asks the token whose segment covers offset off to grant node
// id: the segment of the age-a token is [(a-1)*per+1, a*per], so off maps
// to age ceil(off/per). A consumed or expired token answers LiveAt false
// and the probe is free.
func (n *Network) slotProbe(c *channel, now int64, id, off, per int, sc *flow.SlotCredits) {
	age := off
	if per > 1 {
		age = (off-1)/per + 1
	}
	if c.slot.LiveAt(now, age) && n.captureSlot(c, id, sc) {
		c.slot.Consume(now, age)
	}
}

// captureSlot applies the slot-token eligibility checks and capture
// effects for node id, which already wants channel c.
func (n *Network) captureSlot(c *channel, id int, sc *flow.SlotCredits) bool {
	nd := &n.nodes[id]
	if n.faults != nil && n.faults.Stalled(id) {
		return false
	}
	if nd.granted || nd.holding >= 0 {
		return false
	}
	if !c.fair.Allow(id) {
		return false
	}
	c.fair.OnCapture(id)
	nd.granted = true
	if sc != nil {
		sc.Capture()
	}
	n.grants = append(n.grants, grant{node: nd, ch: c})
	n.emitTapMeta(EvTokenCapture, tokenAux(id, c.home))
	return true
}

// bindGlobalArbitrate binds the token-phase closures for global schemes:
// advance is free-token death (fault injection), the silence watchdog
// (recovery), and token motion with capture; idle is token motion over
// deferred cycles, which skipOK confines to runs with neither faults nor
// recovery. onHome, when non-nil, runs each time the token passes its
// home node (Token Channel: credit reimbursement, which pays out once
// however many passes go by with nothing freed — see GlobalToken.Idle).
// Bound once per channel at construction; never inline (see bindGlobalSweep).
//
//go:noinline
func bindGlobalArbitrate(n *Network, c *channel, sweep arbiter.SweepFunc, onHome func()) {
	c.idle = func(from, to int64) { c.glob.Idle(to-from+1, onHome) }
	c.advance = func(now int64) {
		if n.faults != nil && !c.glob.Lost() {
			if _, held := c.glob.Held(); !held && n.faults.KillToken(c.home, now) {
				// The free circulating token dies in the waveguide.
				c.glob.Invalidate()
				n.stats.FaultsInjected++
				n.emitMeta(EvFault, faultAux(fault.TokenLoss, c.home))
			}
		}
		if n.recoveryOn && now-c.lastActivity > n.watchdog {
			// Watchdog: the home node has seen neither a token pass nor an
			// arrival for a full silence window — re-emit the token. The
			// arbiter's duplicate-token guard refuses if the token is in
			// fact alive (e.g. parked at a holder the home cannot observe),
			// so a misjudged firing is harmless.
			if c.glob.Regenerate() {
				n.stats.TokensRegenerated++
				n.emitMeta(EvTokenRegen, uint64(c.home))
			}
			c.lastActivity = now // re-arm the window either way
		}
		if _, held := c.glob.Held(); !held {
			before := c.glob.HomePasses()
			sw := sweep
			if n.wantNodes[c.home] == 0 {
				// Nobody wants this channel: every capture probe would
				// answer no, so the token moves without scanning.
				sw = nil
			}
			c.glob.AdvanceSweep(sw, onHome)
			if c.glob.HomePasses() != before {
				c.lastActivity = now
			}
		}
	}
}

// bindSlotArbitrate binds the token-phase closures for distributed
// schemes: advance reclaims credits stranded aboard dead tokens (recovery,
// Token Slot only), then drives the slot emitter through one cycle —
// expiry, requester-driven capture scan (slotScan), emission; idle runs
// expiry and emission over deferred cycles (SlotEmitter.Idle). The gate
// is stationary there: without faults it is Token Slot's credit gate or
// always open, and a channel is never deferred with a circulation
// suppression pending. sc, when non-nil, moves the home credit aboard
// each captured token (Token Slot).
// Bound once per channel at construction; never inline (see bindGlobalSweep).
//
//go:noinline
func bindSlotArbitrate(n *Network, c *channel, gate func() bool, sc *flow.SlotCredits, expire func()) {
	c.idle = func(from, to int64) { c.slot.Idle(from, to, expire, gate) }
	c.advance = func(now int64) {
		if c.regen != nil {
			// Credits stranded aboard dead slot tokens come back at the
			// token's nominal expiry window.
			for range c.regen.PopDue(now) {
				expire()
				n.stats.TokensRegenerated++
				n.emitMeta(EvTokenRegen, uint64(c.home))
			}
		}
		c.slot.BeginCycle(now, expire)
		if n.wantNodes[c.home] > 0 {
			// Somebody wants this channel; with no requesters every live
			// token's probe would answer no, so the scan is skipped whole.
			n.slotScan(c, now, sc)
		}
		c.slot.Emit(now, gate)
	}
}

// bindHeldLaunch builds the launch closure for a held global token: one
// packet per cycle while eligible, then release back onto the loop.
// rc, when non-nil, must authorise each send by spending a credit aboard
// the token, and gates holding the token on credits remaining (Token
// Channel).
// Bound once per channel at construction; never inline (see bindGlobalSweep).
//
//go:noinline
func bindHeldLaunch(n *Network, c *channel, rc *flow.RelayedCredits) func(now int64) {
	return func(now int64) {
		off, held := c.glob.Held()
		if !held {
			return
		}
		nd := &n.nodes[n.geom.NodeAt(c.home, off)]
		if n.faults != nil && n.faults.Stalled(nd.id) {
			// Resonator drift hit the holder mid-grab: it cannot modulate,
			// so it releases the token rather than sit on it silently.
			n.releaseToken(c, nd)
			return
		}
		_, q, pkt := n.pickQueue(nd, c.home)
		if pkt != nil && (rc == nil || rc.Spend()) {
			n.launch(nd, q, c, pkt)
			// Wave-pipelined release: the re-emitted token rides just
			// behind the data flit, so a holder with nothing more to send
			// frees the token in the send cycle rather than one cycle
			// later — without this, global arbitration caps at half the
			// channel's wave-pipelined capacity.
			keep := n.wants(c.home, nd.id) && (rc == nil || rc.OnToken() > 0)
			if !keep {
				n.releaseToken(c, nd)
			}
		} else {
			n.releaseToken(c, nd)
		}
	}
}

// releaseToken puts channel c's global token, held by node nd, back onto
// the loop.
func (n *Network) releaseToken(c *channel, nd *nodeState) {
	c.glob.Release()
	nd.holding = -1
	n.held.clear(c.home)
	n.emitTapMeta(EvTokenRelease, tokenAux(nd.id, c.home))
}

// tokenFault accounts a distributed-token (slot) death and, with recovery
// on, schedules the stranded credit's reclaim for the cycle the token
// would nominally have expired back at home (age R+1) — the earliest
// moment the home node can *know* the token is not coming back.
func (n *Network) tokenFault(c *channel) {
	n.stats.FaultsInjected++
	n.emitMeta(EvFault, faultAux(fault.TokenLoss, c.home))
	if n.recoveryOn && c.regen != nil {
		c.regen.Schedule(n.now, n.now+int64(n.cfg.RoundTrip)+1, n.now)
	}
}

// classifyDataLoss settles a logical packet's fate after a data fault
// destroyed an arriving copy: a duplicate of an already-accepted packet
// leaves the real one safe downstream; without sender retention the
// packet is permanently lost (credits and circulation cannot recover from
// data loss — the paper-side argument for handshake robustness, made
// measurable); with retention the sender's retransmit timeout will
// re-send (recovery on) or strand it visibly (recovery off).
func (n *Network) classifyDataLoss(pkt *router.Packet) {
	switch {
	case pkt.AcceptedAt >= 0:
		n.dupsInFlight--
		if n.dupsInFlight < 0 {
			panic("core: negative duplicate-in-flight count")
		}
	case n.policy == router.FireAndForget:
		n.stats.Lost++
	default:
		n.orphans++
	}
}
