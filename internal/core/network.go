package core

import (
	"errors"
	"fmt"
	"math/bits"

	"photon/internal/arbiter"
	"photon/internal/fault"
	"photon/internal/ring"
	"photon/internal/router"
	"photon/internal/sim"
)

// Network is one cycle-accurate instance of the 64-node MWSR optical ring
// under a single scheme. It simulates all Nodes channels together because
// sender-side queues couple them: a node's per-core output queue may hold
// packets for many destinations, and a pending (un-ACKed) head blocks
// followers bound elsewhere — the head-of-line effect the paper's setaside
// and circulation techniques exist to cure.
//
// Architecture per node (paper Fig. 7): CoresPerNode output queues (one per
// attached core) feed a single E/O launch port through the router's SA
// stage, so a node launches at most one packet per cycle; each queue owns
// its private setaside slots; the node's own channel ends in an input
// buffer of BufferDepth slots drained at EjectRate packets per cycle.
//
// The engine itself is scheme-agnostic: everything per-scheme is reached
// through the scheme's registry row (protocol.go), whose wire function
// binds the channel's hook closures once at construction. The cycle loop
// only calls those closures — no scheme dispatch on the hot path.
//
// Cycle phase order (the determinism contract documented in DESIGN.md):
//
//  1. optical arrivals at home nodes (accept / drop+NACK / reinject)
//  2. handshake pulses reach senders (ACK frees, NACK arms retransmit)
//     2b. retransmit timers expire (recovery only; after pulse delivery so
//     an answer arriving exactly at the deadline wins over the timeout)
//  3. ejection from home buffers to cores (frees credits)
//  4. token motion and capture (watchdog regeneration first)
//  5. launches onto data channels
//  6. electrical injection pipeline delivers new packets to output queues
//  7. invariant checks
//
// A cycle costs its events, not its channels. Phase 1 visits the channels
// the arrival calendar has a flit due at, phase 2 those the pulse calendar
// has a pulse due at, phase 3 those with a non-empty input buffer, and
// phase 5's held-token sends those whose global token is held — each in
// ascending id, the order a visit of every channel makes, so every emit,
// callback and tap keeps its place. A visit skipped that way would have
// found nothing and drawn nothing: the data-loss and pulse-loss fault
// draws are made per arrival and per pulse. An ejection stall draws even
// over an empty buffer, so with EjectStallProb > 0 phase 3 visits every
// channel. Phase 4 visits, in rotated order, the channels somebody wants,
// holds, or has a circulation suppression pending at; the others' arbiters
// are deferred and caught up exactly when next needed (catchUp) — on
// fault-free runs without recovery only (skipOK), and every channel runs
// its arbiter every cycle otherwise. Invariants (phase 7) are checked on
// every channel every cycle.
//
// Identical Config (including Seed) and identical injection sequences give
// bit-identical results.
type Network struct {
	cfg    Config
	geom   *ring.Geometry
	window sim.Window
	now    int64
	nextID uint64

	// Node, queue and channel state lives in flat value slices (struct of
	// arrays): the phase loops touch all of them every cycle, and walking
	// contiguous memory instead of chasing per-element pointers is a large
	// fraction of the engine's raw speed. Pointers *into* the slices
	// (&nodes[i], &chans[h]) are handed to bound closures at construction
	// and stay valid because the slices never grow after NewNetwork.
	nodes  []nodeState
	queues []queueState // node i's queues: queues[i*CoresPerNode : (i+1)*CoresPerNode]
	chans  []channel

	// wantMask is the requester set, one bit per (channel, node): home h
	// owns the wantWords = (Nodes+63)/64 words from h*wantWords, and bit
	// id&63 of word id>>6 is set iff one of node id's queues wants channel
	// h (queueState.want == h). Token sweeps over channel h read one
	// contiguous row of it. wantNodes[h] is row h's population count; zero
	// lets the token phase skip channel h's capture scan outright.
	// updateQueueWant is the only writer of both.
	wantMask  []uint64
	wantWords int
	wantNodes []int32

	// Channel sets, one bit per home, laid out like a wantMask row: wanted
	// (wantNodes[h] > 0), held (h's global token is held), suppressed (a
	// circulation reinjection vetoes h's next token) and buffered (h's
	// input buffer is non-empty). arrCal and pulseCal are the event
	// calendars: calRows rows of such a set, row (cycle mod calRows)
	// marking the channels with a data flit, or a handshake pulse, due that
	// cycle. calRows covers the lines' horizon, so rows never alias, and
	// calIdx is the current cycle's row. every is the set of all channels;
	// visitAll and ejectAll are either every or all zeroes, and are or-ed
	// into what phases 1, 2 and 5 and phase 3 walk.
	wanted, held, suppressed, buffered chanSet
	arrCal, pulseCal                   []uint64
	calRows, calIdx                    int
	every, visitAll, ejectAll          chanSet

	// arbTo is the cycle deferred arbiters are caught up to when touched:
	// the previous cycle until this cycle's token phase has run, this one
	// after it.
	arbTo int64

	grants []grant

	stats *Stats
	rng   *sim.RNG

	// OnDeliver, when set, is invoked for every delivered packet in the
	// cycle it reaches its destination core — the hook closed-loop
	// workloads (the CMP model) use to complete transactions. The packet
	// is valid for the duration of the call: the engine may recycle it the
	// moment the callee returns, so copy what outlives the call.
	OnDeliver func(*router.Packet)

	// tap is the optional lifecycle-event sink installed with SetTracer;
	// nil (the default) keeps every emit site to a single pointer test.
	tap Tracer

	injPipe *sim.DelayLine[*router.Packet]

	// Fault injection and recovery. faults is nil on fault-free runs —
	// every hook in the hot path is gated on that nil check, so the
	// fault-free cycle costs nothing extra.
	faults     *fault.Injector
	recoveryOn bool
	retxBase   int64 // sender timeout base (cycles)
	watchdog   int64 // global-token silence window (cycles)
	onTimeout  func(*router.Packet)

	// skipOK is the static gate of the idle skip-ahead and of deferred
	// arbiters: both are sound only when no per-cycle randomness is drawn
	// outside the injector (EjectStallProb == 0 — a stalled eject draws
	// its RNG even over an empty buffer), no fault process needs its
	// per-cycle Bernoulli stream (faults == nil), and no recovery watchdog
	// observes token silence. The dynamic half of the idle gate is
	// holders == 0; see RunCycles.
	skipOK bool

	// orphans counts logical packets whose only live copy was destroyed
	// (NACK-dropped awaiting retransmit, or fault-discarded with a sender
	// retention copy); dupsInFlight counts extra copies of already-accepted
	// packets launched by timeout recovery. Both keep Backlog exact under
	// faults; on fault-free runs orphans == Drops - Retransmits and
	// dupsInFlight == 0.
	orphans      int
	dupsInFlight int

	// Packet lifetime (DESIGN.md, "Packet lifetime"). holders sums the live
	// packets' holder counts, one per term of Outstanding(), so the two are
	// equal at every cycle boundary; live counts packets injected and not
	// yet released. pool is where release puts them and Inject looks
	// first, and holds the output queues' descriptor segments.
	holders int
	live    int
	pool    *router.Pool

	// spec is the scheme's registry row; its wire function built the
	// channel hooks. (Kept at the tail: these are cold after construction,
	// and the hot fields above share cache lines the cycle loop depends on.)
	spec   ProtocolSpec
	policy router.SendPolicy
}

// nodeState is the electrical side of one ring node. Its queues live in
// the network's flat queue slice (Network.nodeQueues); which channels the
// node wants live in the requester set (Network.wantMask).
type nodeState struct {
	id int
	// granted marks that the node's launch port is already claimed this
	// cycle (by a distributed token capture).
	granted bool
	// holding is the home id of the global token this node holds, or -1.
	holding int
	// rr rotates queue service order (the SA stage's round-robin).
	rr int
}

// queueState is one per-core output queue with its send-policy state.
type queueState struct {
	out  *router.OutPort
	want int // home id of the channel this queue's next-ready packet wants, or -1
}

// channel is the optical machinery of one home node. The scheme-specific
// substrate fields (hs/glob/slot/regen) and the closure fields at the
// bottom are set once by the scheme's wire function at construction; the
// closures are all of the scheme the cycle loop ever calls.
type channel struct {
	home int
	data *ring.DataChannel[*router.Packet]
	hs   *ring.HandshakeChannel // handshake schemes only
	glob *arbiter.GlobalToken   // global arbitration only
	slot *arbiter.SlotEmitter   // distributed arbitration only
	in   *router.InPort
	fair *arbiter.Fairness

	// fairRoll is fair.NextRoll(): the cycle the fairness window next
	// rolls at, kept here so the in-window test touches no other line.
	// arbAt is the last cycle the channel's arbiter has run for; it lags
	// the clock while the arbiter is deferred.
	fairRoll int64
	arbAt    int64

	// Fault-injection state. lastActivity is the last cycle the home node
	// observed arbitration life on a global channel (a token pass or a
	// data arrival) — the watchdog's silence reference. regen (Token Slot
	// under fault injection only) schedules the reclaim of a credit that
	// left home aboard a token that died, at the token's nominal expiry
	// window. faultDiscards counts data flits destroyed on arrival;
	// dupsDiscarded counts recognised duplicate arrivals.
	lastActivity  int64
	regen         *sim.DelayLine[int64]
	faultDiscards int64
	dupsDiscarded int64

	// Pre-bound protocol hooks (see ProtocolSpec.wire in protocol.go). A
	// nil hook means the scheme has no behaviour in that phase.
	advance     func(now int64)                     // phase 4: token motion + capture
	idle        func(from, to int64)                // phase 4 of cycles from..to, nobody wanting
	launchHeld  func(now int64)                     // phase 5: held global token sends
	arrive      func(now int64, pkt *router.Packet) // phase 1: packet at home
	handshake   func(now int64)                     // phase 2: ACK/NACK delivery
	onEject     func()                              // phase 3: per-packet credit release
	onDataFault func(pkt *router.Packet)            // data-loss ledger reconciliation
	invariant   func() error                        // phase 7: conservation check
}

type grant struct {
	node *nodeState
	ch   *channel
}

// NewNetwork builds a network from cfg, measuring over window. The
// window needs a measure phase of at least one cycle (throughput divides
// by it) and no negative phase.
func NewNetwork(cfg Config, window sim.Window) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case window.Warmup < 0:
		return nil, fmt.Errorf("core: window warmup %d cycles, need >= 0", window.Warmup)
	case window.Measure < 1:
		return nil, fmt.Errorf("core: window measure %d cycles, need >= 1", window.Measure)
	case window.Drain < 0:
		return nil, fmt.Errorf("core: window drain %d cycles, need >= 0", window.Drain)
	}
	spec, ok := LookupProtocol(cfg.Scheme)
	if !ok {
		return nil, fmt.Errorf("core: invalid scheme %d", int(cfg.Scheme))
	}
	geom, err := ring.NewGeometry(cfg.Nodes, cfg.RoundTrip)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:     cfg,
		geom:    geom,
		window:  window,
		spec:    spec,
		policy:  spec.SendPolicy,
		stats:   NewStats(window, cfg.Nodes, cfg.Cores()),
		rng:     sim.NewRNG(cfg.Seed),
		injPipe: sim.NewDelayLine[*router.Packet](cfg.RouterPipeline + 2),
		pool:    router.NewPool(poisonPackets),
	}
	if cfg.Fault.Enabled {
		fcfg := cfg.Fault
		if fcfg.Seed == 0 {
			fcfg.Seed = sim.DeriveSeed(cfg.Seed, faultSeedStream)
		}
		n.faults = fault.NewInjector(fcfg, cfg.Nodes)
	}
	n.skipOK = n.faults == nil && cfg.EjectStallProb == 0 && !cfg.Recovery.Enabled
	if cfg.Recovery.Enabled {
		n.recoveryOn = true
		n.retxBase = int64(2 * (cfg.RoundTrip + 2)) // see RecoveryConfig
		n.watchdog = cfg.watchdogWindow()
		n.onTimeout = func(pkt *router.Packet) {
			n.stats.TimeoutRetransmits++
			n.emit(EvTimeout, pkt)
		}
	}

	n.nodes = make([]nodeState, cfg.Nodes)
	n.queues = make([]queueState, cfg.Nodes*cfg.CoresPerNode)
	for i := range n.nodes {
		n.nodes[i] = nodeState{id: i, holding: -1}
	}
	for qi := range n.queues {
		n.queues[qi] = queueState{
			out:  router.NewOutPort(n.policy, cfg.QueueCap, cfg.SetasideSize, n.pool),
			want: -1,
		}
	}
	n.wantNodes = make([]int32, cfg.Nodes)
	n.wantWords = (cfg.Nodes + 63) / 64
	n.wantMask = make([]uint64, cfg.Nodes*n.wantWords)
	w := n.wantWords
	n.wanted, n.held, n.suppressed, n.buffered = make(chanSet, w), make(chanSet, w), make(chanSet, w), make(chanSet, w)
	n.calRows = 2*cfg.RoundTrip + 5 // the data and handshake lines' horizon, 2R+4, plus the current cycle
	n.arrCal, n.pulseCal = make([]uint64, n.calRows*w), make([]uint64, n.calRows*w)
	n.every = make(chanSet, w)
	for h := 0; h < cfg.Nodes; h++ {
		n.every.set(h)
	}
	n.visitAll, n.ejectAll = make(chanSet, w), make(chanSet, w)
	if cfg.EjectStallProb > 0 {
		n.ejectAll = n.every
	}
	n.arbTo = -1
	// At most one grant per node per cycle (the granted flag), so the
	// grant queue never outgrows this and phaseLaunch never reallocates.
	n.grants = make([]grant, 0, cfg.Nodes)

	n.chans = make([]channel, cfg.Nodes)
	for h := range n.chans {
		c := &n.chans[h]
		*c = channel{
			home:  h,
			data:  ring.NewDataChannel[*router.Packet](geom),
			in:    router.NewInPort(cfg.BufferDepth, cfg.EjectRate, cfg.EjectStallProb, n.rng.Fork(uint64(h)+1000)),
			fair:  arbiter.NewFairness(cfg.Nodes, cfg.Fairness),
			arbAt: -1,
		}
		c.fairRoll = c.fair.NextRoll()
		spec.wire(n, c)
	}
	return n, nil
}

// nodeQueues returns node id's per-core output queues (a view into the
// flat queue slice).
func (n *Network) nodeQueues(id int) []queueState {
	k := n.cfg.CoresPerNode
	return n.queues[id*k : (id+1)*k]
}

// wantRow returns channel h's row of the requester set.
func (n *Network) wantRow(h int) []uint64 {
	return n.wantMask[h*n.wantWords : (h+1)*n.wantWords]
}

// wants reports whether node id is in channel h's requester set.
func (n *Network) wants(h, id int) bool {
	return n.wantMask[h*n.wantWords+id>>6]>>uint(id&63)&1 != 0
}

// chanSet is a set of channel (home) ids, one bit each, bit h&63 of word
// h>>6.
type chanSet []uint64

func (s chanSet) set(h int)      { s[h>>6] |= 1 << uint(h&63) }
func (s chanSet) clear(h int)    { s[h>>6] &^= 1 << uint(h&63) }
func (s chanSet) has(h int) bool { return s[h>>6]>>uint(h&63)&1 != 0 }

// calRow returns cal's row for cycle due, which must lie within the lines'
// horizon from the current cycle (their Schedule has already checked it).
func (n *Network) calRow(cal []uint64, due int64) chanSet {
	r := n.calIdx + int(due-n.now)
	if r >= n.calRows {
		r -= n.calRows
	}
	return cal[r*n.wantWords : (r+1)*n.wantWords]
}

// faultSeedStream is the DeriveSeed stream id reserved for the fault
// injector when Fault.Seed is left 0 (derive from the network seed).
const faultSeedStream = 0xFA017

// faultAux encodes a packet-less fault event's (class, element) pair into
// the digest aux word.
func faultAux(cl fault.Class, element int) uint64 {
	return uint64(cl)<<32 | uint64(uint32(element))
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Window returns the measurement window.
func (n *Network) Window() sim.Window { return n.window }

// Stats exposes the live statistics collector.
func (n *Network) Stats() *Stats { return n.stats }

// Inject hands a packet from srcCore (a global core id) to its node's
// router at the current cycle; it surfaces in an output queue after the
// electrical pipeline delay. Destination is a node id (a cache bank's or
// core cluster's network attachment). Packets whose destination is the
// source's own node never enter the optical ring: they are delivered
// locally after the router latency, as in the paper's concentrated S-NUCA
// layout.
//
// Inject returns the packet's id, the key of its events (Tracer) and of
// its delivery (OnDeliver). The packet itself is the engine's: a queued
// one is kept as a descriptor and rebuilt at the queue head, so no pointer
// to it is stable outside those two calls.
func (n *Network) Inject(srcCore, dstNode int, class router.Class, tag uint64) uint64 {
	if srcCore < 0 || srcCore >= n.cfg.Cores() {
		panic(fmt.Sprintf("core: Inject from invalid core %d", srcCore))
	}
	if dstNode < 0 || dstNode >= n.cfg.Nodes {
		panic(fmt.Sprintf("core: Inject to invalid node %d", dstNode))
	}
	srcNode := srcCore / n.cfg.CoresPerNode
	pkt := n.pool.Get(n.nextID, srcNode, dstNode, n.now)
	n.nextID++ // always a fresh id: digests, ptrace cursors and OutPort.Ack key on it
	n.holders++
	n.live++
	pkt.Class = class
	pkt.Tag = tag | uint64(srcCore)<<40 // keep the core for local queue routing
	n.stats.onInjected(pkt)
	n.emit(EvInject, pkt)
	n.injPipe.Schedule(n.now, n.now+int64(n.cfg.RouterPipeline), pkt)
	return pkt.ID
}

// Digest returns the current value of the run's protocol-event
// fingerprint (finalised into Result.Digest at the end of the run).
func (n *Network) Digest() uint64 { return n.stats.digest.value() }

// poisonPackets, set only by tests, makes the pool of each network built
// while it is on overwrite a finished or compacted packet instead of
// recycling it, so anything that reads a packet after the engine is done
// with it fails loudly.
var poisonPackets bool

// release records that one engine-side holder of pkt let go; the last one
// to do so retires the packet toward the tap and recycles it. Every call
// site sits after the last emit and callback of its phase that is handed
// the packet, so EvRetire is the packet's last event.
func (n *Network) release(pkt *router.Packet) {
	n.holders--
	if !pkt.Drop() {
		return
	}
	n.live--
	n.emitTap(EvRetire, pkt)
	n.pool.Put(pkt)
}

// queueOf returns the per-core output queue a packet belongs to.
func (n *Network) queueOf(pkt *router.Packet) (*nodeState, *queueState) {
	core := int(pkt.Tag>>40) % n.cfg.CoresPerNode
	return &n.nodes[pkt.Src], &n.queues[pkt.Src*n.cfg.CoresPerNode+core]
}

// Step advances the network by one cycle, executing the seven phases.
func (n *Network) Step() {
	now := n.now
	n.arbTo = now - 1
	if n.faults != nil {
		n.faults.BeginCycle(now, func(node int) {
			n.stats.FaultsInjected++
			n.emitMeta(EvFault, faultAux(fault.NodeStall, node))
		})
	}
	w := n.wantWords
	row := n.arrCal[n.calIdx*w : (n.calIdx+1)*w]
	for wi, word := range row {
		row[wi] = 0
		for b := word | n.visitAll[wi]; b != 0; b &= b - 1 {
			n.phaseArrive(&n.chans[wi<<6|bits.TrailingZeros64(b)], now)
		}
	}
	row = n.pulseCal[n.calIdx*w : (n.calIdx+1)*w]
	for wi, word := range row {
		row[wi] = 0
		for b := word | n.visitAll[wi]; b != 0; b &= b - 1 {
			if c := &n.chans[wi<<6|bits.TrailingZeros64(b)]; c.handshake != nil {
				c.handshake(now)
			}
		}
	}
	if n.recoveryOn {
		n.phaseTimeouts(now)
	}
	for wi, word := range n.buffered {
		for b := word | n.ejectAll[wi]; b != 0; b &= b - 1 {
			n.phaseEject(&n.chans[wi<<6|bits.TrailingZeros64(b)], now)
		}
	}
	n.tokenPhase(now)
	n.arbTo = now
	n.phaseLaunch(now)
	n.phasePipeline(now)
	if n.cfg.CheckInvariants {
		n.checkInvariants()
	}
	n.now++
	if n.calIdx++; n.calIdx == n.calRows {
		n.calIdx = 0
	}
}

// RunCycles advances the network by k cycles. It is bit-identical to k
// consecutive Step calls, but when the network goes quiescent mid-span —
// nothing queued, in flight, pending, or buffered anywhere — it skips the
// rest of the span outright (see idleRun). Drivers with gaps between
// injections (tape replay, drain tails) route them through here to collect
// the speedup.
func (n *Network) RunCycles(k int64) {
	end := n.now + k
	for n.now < end {
		if n.skipOK && n.holders == 0 {
			n.idleRun(end)
			return
		}
		n.Step()
	}
}

// idleRun advances a quiescent network to cycle end by moving the clock.
// holders == 0 is Outstanding() == 0 (the two are equal at every cycle
// boundary), and then every phase but the token phase is a no-op: every
// delay line, calendar, buffer and queue is empty, no retransmit timer is
// armed, and no global token is held (a holder releases in the send cycle
// once its queue empties). Quiescence is absorbing — with no requesters no
// capture, grant or launch can occur — so every channel's token phase is
// deferred, exactly as Step defers an unwanted channel's, and catchUp
// replays it in O(R) when next needed. The lines accept bookings counted
// from the current cycle after pops they skipped, so nothing else needs
// fast-forwarding. No digest event can be emitted in an idle cycle, so
// digests are bit-identical by construction; the skip-ahead equivalence
// battery asserts it.
func (n *Network) idleRun(end int64) {
	n.now = end
	n.arbTo = end - 1
	n.calIdx = int(end % int64(n.calRows))
}

// phaseArrive processes the at-most-one packet landing at channel c's home.
func (n *Network) phaseArrive(c *channel, now int64) {
	pkt, ok := c.data.Arrival(now)
	if !ok {
		return
	}
	if c.glob != nil {
		// Any arrival proves the arbitration loop is alive (someone held
		// the token recently) — watchdog activity.
		c.lastActivity = now
	}
	if n.faults != nil && n.faults.KillData(c.home, now) {
		n.dataFault(c, pkt)
		return
	}
	c.arrive(now, pkt)
	if c.in.Occupied() > 0 {
		n.buffered.set(c.home)
	}
}

// dataFault applies a data-loss fault to an arriving flit: the home cannot
// read it (header included), so it is discarded with no handshake answer.
// What happens to the *packet* depends on who still remembers it — the
// scheme's onDataFault hook reconciles its ledger and classifies the
// packet's fate.
func (n *Network) dataFault(c *channel, pkt *router.Packet) {
	n.stats.FaultsInjected++
	c.faultDiscards++
	n.emit(EvFault, pkt)
	c.onDataFault(pkt)
	n.release(pkt) // the destroyed copy
}

// phaseTimeouts expires armed retransmit timers (recovery only). It runs
// after the handshake phase by contract: an answer delivered in this very
// cycle has already resolved its entry, so a timer never fires against an
// answer that actually arrived — including one arriving exactly at the
// deadline cycle.
func (n *Network) phaseTimeouts(now int64) {
	for i := range n.nodes {
		nd := &n.nodes[i]
		qs := n.nodeQueues(nd.id)
		for j := range qs {
			q := &qs[j]
			if q.out.Unacked() == 0 {
				continue
			}
			if q.out.ExpireTimeouts(now, n.onTimeout) > 0 {
				n.updateQueueWant(nd, q)
			}
		}
	}
}

// phaseEject drains the home buffer to the cores and frees credits. A
// credit goes back to the arbiter's ledger, so a deferred arbiter is
// caught up first.
func (n *Network) phaseEject(c *channel, now int64) {
	if c.onEject != nil && c.arbAt < n.arbTo {
		n.catchUp(c, n.arbTo)
	}
	for _, pkt := range c.in.Eject() {
		if c.onEject != nil {
			c.onEject()
		}
		pkt.DeliveredAt = now + int64(n.cfg.EjectLatency)
		n.stats.onDelivered(pkt, false)
		n.emit(EvDeliver, pkt)
		if n.OnDeliver != nil {
			n.OnDeliver(pkt)
		}
		n.release(pkt) // the home buffer's
	}
	if c.in.Occupied() == 0 {
		n.buffered.clear(c.home)
	}
}

// tokenPhase is phase 4: the channels' arbiters in rotated order. Under
// skipOK it visits only the channels some node wants, whose global token
// is held, or whose next token a reinjection suppresses — any other
// channel's token phase can capture nothing and emit nothing, so it is
// deferred — catching each visited channel up through the previous cycle
// first. A deferred channel captures nothing, so the visited ones keep
// the order and the outcome of a visit of all of them.
func (n *Network) tokenPhase(now int64) {
	// Rotate channel order so cross-channel capture priority (an artefact
	// of sequential simulation, not physics) carries no systematic bias.
	start := int(now) % len(n.chans)
	w := n.wantWords
	sw, sb := start>>6, uint(start&63)
	for k := 0; k <= w; k++ {
		wi := sw + k
		if wi >= w {
			wi -= w
		}
		b := n.every[wi]
		if n.skipOK {
			b = n.wanted[wi] | n.held[wi] | n.suppressed[wi]
		}
		if k == 0 {
			b &= ^uint64(0) << sb // ids from start up
		} else if k == w {
			b &= 1<<sb - 1 // the wrapped ids below start
		}
		for ; b != 0; b &= b - 1 {
			c := &n.chans[wi<<6|bits.TrailingZeros64(b)]
			if c.arbAt < now-1 {
				n.catchUp(c, now-1)
			}
			n.phaseTokens(c, now)
			c.arbAt = now
		}
	}
}

// phaseTokens advances channel c's arbitration by one cycle: the
// scheme-independent fairness window accounting, then the protocol's bound
// token-motion closure.
func (n *Network) phaseTokens(c *channel, now int64) {
	if now >= c.fairRoll {
		rolled := c.fair.BeginCycle(now)
		c.fairRoll = c.fair.NextRoll()
		if rolled && n.wantNodes[c.home] > 0 {
			// A new fairness window opened: re-register the still-backlogged
			// requesters (in ascending id) so sustained contention is
			// counted, not just newly arriving heads.
			for wi, w := range n.wantRow(c.home) {
				for ; w != 0; w &= w - 1 {
					c.fair.OnRequest(wi<<6 | bits.TrailingZeros64(w))
				}
			}
		}
	}
	c.advance(now)
}

// catchUp runs deferred channel c's arbiter through cycle to: the token
// phases of cycles arbAt+1..to, in each of which nobody wanted c, its
// global token was not held and no reinjection suppressed its token. The
// fairness window rolls with no requester to re-register, a free global
// token moves on, and a slot emitter expires and emits — each in O(R) or
// less, however long the span (Fairness.Idle, GlobalToken.Idle,
// SlotEmitter.Idle). It is called before anything reads or changes what
// those cycles would have changed: before the channel's next token phase,
// an ejection's credit return, a new requester's OnRequest, and any read
// of the arbiter counters (Result, Diagnostics).
func (n *Network) catchUp(c *channel, to int64) {
	from := c.arbAt + 1
	if from > to {
		return
	}
	c.arbAt = to
	if to >= c.fairRoll {
		c.fair.Idle(to)
		c.fairRoll = c.fair.NextRoll()
	}
	c.idle(from, to)
}

// catchUpAll brings every deferred arbiter up to date, before a read of
// their counters.
func (n *Network) catchUpAll() {
	for i := range n.chans {
		n.catchUp(&n.chans[i], n.arbTo)
	}
}

// phaseLaunch fires this cycle's granted and held sends.
func (n *Network) phaseLaunch(now int64) {
	// Distributed-token grants: exactly one packet per grant.
	for _, g := range n.grants {
		nd, q, pkt := n.pickQueue(g.node, g.ch.home)
		if pkt == nil {
			panic("core: token grant with no eligible packet")
		}
		n.launch(nd, q, g.ch, pkt)
		g.node.granted = false
	}
	n.grants = n.grants[:0]

	// Global token holders, in ascending channel id.
	for wi, word := range n.held {
		for b := word | n.visitAll[wi]; b != 0; b &= b - 1 {
			if c := &n.chans[wi<<6|bits.TrailingZeros64(b)]; c.launchHeld != nil {
				c.launchHeld(now)
			}
		}
	}
}

// pickQueue selects, round-robin from the node's SA pointer, a queue whose
// next-ready packet is bound for home h.
func (n *Network) pickQueue(nd *nodeState, h int) (*nodeState, *queueState, *router.Packet) {
	qs := n.nodeQueues(nd.id)
	i := nd.rr
	for range qs {
		q := &qs[i]
		if i++; i == len(qs) {
			i = 0
		}
		if q.want != h {
			continue
		}
		pkt := q.out.NextReady()
		if pkt == nil || pkt.Dst != h {
			panic("core: queue want out of sync with its ready packet")
		}
		nd.rr = i
		return nd, q, pkt
	}
	return nd, nil, nil
}

// launch sends pkt from node nd's queue q onto channel c.
func (n *Network) launch(nd *nodeState, q *queueState, c *channel, pkt *router.Packet) {
	retx := pkt.FirstSentAt >= 0
	off := n.geom.Offset(c.home, nd.id)
	q.out.MarkSent(pkt, n.now)
	var due int64
	var err error
	if c.glob != nil {
		due, err = c.data.LaunchStream(n.now, off, pkt)
	} else {
		due, err = c.data.Launch(n.now, off, pkt)
	}
	if err != nil {
		panic(err)
	}
	n.calRow(n.arrCal, due).set(c.home)
	n.stats.Launches++
	if retx {
		n.stats.Retransmits++
		if pkt.AcceptedAt >= 0 {
			// Timeout re-send of a packet the home already accepted (the
			// ACK died): this copy is a duplicate the home will discard.
			n.dupsInFlight++
		} else {
			n.orphans--
			if n.orphans < 0 {
				panic("core: negative orphan count")
			}
		}
	}
	if q.out.Policy() != router.FireAndForget {
		// The copy on the waveguide is a new holder beside the retaining
		// sender (re-sends too: a duplicate in flight outlives delivery and
		// ACK of its original); a fire-and-forget sender hands its own over.
		pkt.Hold()
		n.holders++
		if n.recoveryOn {
			q.out.Arm(pkt, n.now, n.retxBase, retxBackoffCap)
		}
	}
	n.emit(EvLaunch, pkt)
	if !retx && q.out.Policy() == router.Setaside {
		// A first launch under Setaside parks the packet in a side slot;
		// a retransmission re-sends the copy already parked there.
		n.emitTap(EvSetasideEnter, pkt)
	}
	n.updateQueueWant(nd, q)
}

// phasePipeline moves packets out of the electrical injection pipeline into
// their output queues (or delivers node-local traffic directly).
func (n *Network) phasePipeline(now int64) {
	for _, pkt := range n.injPipe.PopDue(now) {
		srcNode := pkt.Src
		if pkt.Dst == srcNode {
			pkt.DeliveredAt = now + int64(n.cfg.EjectLatency)
			n.stats.onDelivered(pkt, true)
			n.emit(EvDeliver, pkt)
			if n.OnDeliver != nil {
				n.OnDeliver(pkt)
			}
			n.release(pkt)
			continue
		}
		nd, q := n.queueOf(pkt)
		if q.out.Full() {
			n.stats.QueueRejected++
			n.release(pkt)
			continue
		}
		pkt.EnqueuedAt = now
		n.emit(EvEnqueue, pkt)
		q.out.Enqueue(pkt) // the engine's last read of pkt, unless it is the head
		n.updateQueueWant(nd, q)
	}
}

// updateQueueWant re-derives which channel queue q requests and keeps the
// requester set equal to the queues' want fields: node nd's bit in row h is
// set iff one of nd's queues wants h.
func (n *Network) updateQueueWant(nd *nodeState, q *queueState) {
	want := -1
	if pkt := q.out.NextReady(); pkt != nil {
		want = pkt.Dst
		if pkt.ReadyAt < 0 {
			pkt.ReadyAt = n.now
			n.emitTap(EvHeadReady, pkt)
		}
	}
	if want == q.want {
		return
	}
	old := q.want
	q.want = want
	word, bit := nd.id>>6, uint64(1)<<uint(nd.id&63)
	if old >= 0 && !n.nodeWants(nd.id, old) {
		if n.wantNodes[old]--; n.wantNodes[old] == 0 {
			n.wanted.clear(old)
		}
		n.wantMask[old*n.wantWords+word] &^= bit
	}
	if want >= 0 && !n.wants(want, nd.id) {
		c := &n.chans[want]
		if c.arbAt < n.arbTo {
			n.catchUp(c, n.arbTo)
		}
		c.fair.OnRequest(nd.id)
		if n.wantNodes[want]++; n.wantNodes[want] == 1 {
			n.wanted.set(want)
		}
		n.wantMask[want*n.wantWords+word] |= bit
	}
}

// nodeWants reports whether any of node id's queues wants channel h.
func (n *Network) nodeWants(id, h int) bool {
	for _, q := range n.nodeQueues(id) {
		if q.want == h {
			return true
		}
	}
	return false
}

// checkInvariants asserts the protocol's flow-control conservation
// invariant and the channel-occupancy invariant every cycle, reporting the
// scheme by its registry name so diagnostics stay correct for any future
// registered scheme.
func (n *Network) checkInvariants() {
	maxFlight := n.cfg.RoundTrip + 2
	for i := range n.chans {
		c := &n.chans[i]
		if c.invariant != nil {
			if err := c.invariant(); err != nil {
				panic(fmt.Sprintf("core: scheme %s: %v", n.spec.Name, err))
			}
		}
		if f := c.data.InFlight(); f > maxFlight {
			panic(fmt.Sprintf("core: scheme %s: channel %d has %d flits in flight (max %d)",
				n.spec.Name, c.home, f, maxFlight))
		}
	}
}

// Outstanding reports everything the network still *owns*, retention
// copies included: queued, sent-but-unACKed, in flight, buffered at homes,
// or in injection pipelines. It over-counts packets relative to
// Accounting().Backlog (a HoldHead/Setaside sender keeps a copy while the
// packet flies) but is the correct quiescence predicate: zero means no
// node holds any protocol state, so Drain stops on it.
func (n *Network) Outstanding() int {
	total := n.injPipe.Len()
	for i := range n.queues {
		total += n.queues[i].out.Backlog()
	}
	for i := range n.chans {
		total += n.chans[i].data.InFlight() + n.chans[i].in.Occupied()
	}
	return total
}

// ErrDrainStalled tags every *DrainError for errors.Is, so callers can
// test "did the drain hit its cap" without unpacking the details.
var ErrDrainStalled = errors.New("core: drain stalled before quiescence")

// DrainError reports a Drain that hit its quiescence cap: after Cycles
// drain cycles the network still owned Outstanding packets. Before this
// error existed a stranded packet (a fault with recovery disabled, or a
// protocol hole) was indistinguishable from a clean drain that merely
// returned late — a hang and a pass looked the same. Scheme is the
// registry name of the scheme that stalled, so multi-scheme batteries
// report the culprit directly.
type DrainError struct {
	Scheme      string
	Cycles      int64
	Outstanding int
}

func (e *DrainError) Error() string {
	return fmt.Sprintf("core: %s network not quiescent after %d drain cycles: %d packets still outstanding",
		e.Scheme, e.Cycles, e.Outstanding)
}

// Is makes errors.Is(err, ErrDrainStalled) match any *DrainError.
func (e *DrainError) Is(target error) bool { return target == ErrDrainStalled }

// Drain keeps stepping (no new injections) until the network is quiescent
// or limit cycles elapse. It returns the remaining outstanding count,
// together with a *DrainError when that count is non-zero.
func (n *Network) Drain(limit int64) (int, error) {
	for i := int64(0); i < limit && n.holders > 0; i++ { // holders == Outstanding()
		n.Step()
	}
	if left := n.Outstanding(); left > 0 {
		return left, &DrainError{Scheme: n.spec.Name, Cycles: limit, Outstanding: left}
	}
	return 0, nil
}

// Result finalises and returns the run's measurements.
func (n *Network) Result() Result {
	n.catchUpAll()
	return n.stats.Finish(n.cfg.Scheme)
}

// ChannelDiagnostics summarises one channel's low-level counters (tests and
// the verbose CLI mode use it).
type ChannelDiagnostics struct {
	Home          int
	Launches      int64
	Reinjections  int64
	PeakInFlight  int
	PeakInputBuf  int
	TokenCaptures int64
	TokensEmitted int64
	TokensExpired int64
	AcksSent      int64
	NacksSent     int64
	FairYields    int64
}

// Diagnostics returns per-channel low-level counters.
func (n *Network) Diagnostics() []ChannelDiagnostics {
	n.catchUpAll()
	out := make([]ChannelDiagnostics, len(n.chans))
	for i := range n.chans {
		c := &n.chans[i]
		d := ChannelDiagnostics{
			Home:         c.home,
			Launches:     c.data.Launches(),
			Reinjections: c.data.Reinjections(),
			PeakInFlight: c.data.PeakInFlight(),
			PeakInputBuf: c.in.Peak(),
			FairYields:   c.fair.Yields(),
		}
		if c.glob != nil {
			d.TokenCaptures = c.glob.Captures()
		}
		if c.slot != nil {
			d.TokensEmitted, d.TokenCaptures, d.TokensExpired = c.slot.Stats()
		}
		if c.hs != nil {
			d.AcksSent, d.NacksSent = c.hs.Sent()
		}
		out[i] = d
	}
	return out
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
