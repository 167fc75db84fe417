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

	// skipOK precomputes the static half of the idle skip-ahead gate: the
	// fast path is sound only when no per-cycle randomness is drawn
	// outside the injector (EjectStallProb == 0 — a stalled eject draws
	// its RNG even over an empty buffer) and no fault process needs its
	// per-cycle Bernoulli stream (faults == nil). The dynamic half of the
	// gate is Outstanding() == 0; see RunCycles.
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
	// yet released; free is where release puts them and Inject looks first.
	holders int
	live    int
	free    []*router.Packet

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

	// suppress blocks this cycle's token emission after a reinjection
	// (DHS with circulation: the home "virtually consumes" the token).
	suppress bool

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
	}
	if cfg.Fault.Enabled {
		fcfg := cfg.Fault
		if fcfg.Seed == 0 {
			fcfg.Seed = sim.DeriveSeed(cfg.Seed, faultSeedStream)
		}
		n.faults = fault.NewInjector(fcfg, cfg.Nodes)
	}
	n.skipOK = n.faults == nil && cfg.EjectStallProb == 0
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
			out:  router.NewOutPort(n.policy, cfg.QueueCap, cfg.SetasideSize),
			want: -1,
		}
	}
	n.wantNodes = make([]int32, cfg.Nodes)
	n.wantWords = (cfg.Nodes + 63) / 64
	n.wantMask = make([]uint64, cfg.Nodes*n.wantWords)
	// At most one grant per node per cycle (the granted flag), so the
	// grant queue never outgrows this and phaseLaunch never reallocates.
	n.grants = make([]grant, 0, cfg.Nodes)

	n.chans = make([]channel, cfg.Nodes)
	for h := range n.chans {
		c := &n.chans[h]
		*c = channel{
			home: h,
			data: ring.NewDataChannel[*router.Packet](geom),
			in:   router.NewInPort(cfg.BufferDepth, cfg.EjectRate, cfg.EjectStallProb, n.rng.Fork(uint64(h)+1000)),
			fair: arbiter.NewFairness(cfg.Nodes, cfg.Fairness),
		}
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

// faultSeedStream is the DeriveSeed stream id reserved for the fault
// injector when Fault.Seed is left 0 (derive from the network seed).
const faultSeedStream = 0xFA017

// faultAux encodes a packet-less fault event's (class, element) pair into
// the digest aux word.
func faultAux(cl fault.Class, element int) uint64 {
	return uint64(cl)<<32 | uint64(uint32(element))
}

// Geometry exposes the loop timing model (read-only).
func (n *Network) Geometry() *ring.Geometry { return n.geom }

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
// The returned packet is valid until it is delivered (OnDeliver has
// returned), rejected by a bounded queue, or lost to a fault; after that it
// is recycled into a later injection. Copy it in OnDeliver or a Tracer.
func (n *Network) Inject(srcCore, dstNode int, class router.Class, tag uint64) *router.Packet {
	if srcCore < 0 || srcCore >= n.cfg.Cores() {
		panic(fmt.Sprintf("core: Inject from invalid core %d", srcCore))
	}
	if dstNode < 0 || dstNode >= n.cfg.Nodes {
		panic(fmt.Sprintf("core: Inject to invalid node %d", dstNode))
	}
	srcNode := srcCore / n.cfg.CoresPerNode
	var pkt *router.Packet
	if k := len(n.free) - 1; k >= 0 {
		pkt, n.free = n.free[k], n.free[:k]
		pkt.Reset(n.nextID, srcNode, dstNode, n.now)
	} else {
		pkt = router.NewPacket(n.nextID, srcNode, dstNode, n.now)
	}
	n.nextID++ // always a fresh id: digests, ptrace cursors and OutPort.Ack key on it
	n.holders++
	n.live++
	pkt.Class = class
	pkt.Tag = tag | uint64(srcCore)<<40 // keep the core for local queue routing
	n.stats.onInjected(pkt)
	n.emit(EvInject, pkt)
	n.injPipe.Schedule(n.now+int64(n.cfg.RouterPipeline), pkt)
	return pkt
}

// Digest returns the current value of the run's protocol-event
// fingerprint (finalised into Result.Digest at the end of the run).
func (n *Network) Digest() uint64 { return n.stats.digest.value() }

// poisonPackets, set only by tests, makes release overwrite a finished
// packet instead of recycling it, so anything that reads a packet after the
// engine is done with it fails loudly.
var poisonPackets bool

// release records that one engine-side holder of pkt let go; the last one
// to do so recycles the packet. Every call site sits after the last emit
// and callback of its phase that is handed the packet.
func (n *Network) release(pkt *router.Packet) {
	n.holders--
	if !pkt.Drop() {
		return
	}
	n.live--
	if poisonPackets {
		const never = -1 << 62
		*pkt = router.Packet{ID: ^uint64(0), Src: -1, Dst: -1,
			CreatedAt: never, EnqueuedAt: never, ReadyAt: never, FirstSentAt: never,
			SentAt: never, DeliveredAt: never, AcceptedAt: never}
		return
	}
	n.free = append(n.free, pkt)
}

// queueOf returns the per-core output queue a packet belongs to.
func (n *Network) queueOf(pkt *router.Packet) (*nodeState, *queueState) {
	core := int(pkt.Tag>>40) % n.cfg.CoresPerNode
	return &n.nodes[pkt.Src], &n.queues[pkt.Src*n.cfg.CoresPerNode+core]
}

// Step advances the network by one cycle, executing the seven phases.
func (n *Network) Step() {
	now := n.now
	if n.faults != nil {
		n.faults.BeginCycle(now, func(node int) {
			n.stats.FaultsInjected++
			n.emitMeta(EvFault, faultAux(fault.NodeStall, node))
		})
	}
	for i := range n.chans {
		n.phaseArrive(&n.chans[i], now)
	}
	for i := range n.chans {
		if c := &n.chans[i]; c.handshake != nil {
			c.handshake(now)
		}
	}
	if n.recoveryOn {
		n.phaseTimeouts(now)
	}
	for i := range n.chans {
		n.phaseEject(&n.chans[i], now)
	}
	// Rotate channel order so cross-channel capture priority (an artefact
	// of sequential simulation, not physics) carries no systematic bias.
	start := int(now) % len(n.chans)
	for i := range n.chans {
		n.phaseTokens(&n.chans[(start+i)%len(n.chans)], now)
	}
	n.phaseLaunch(now)
	n.phasePipeline(now)
	if n.cfg.CheckInvariants {
		n.checkInvariants()
	}
	n.now++
}

// RunCycles advances the network by k cycles. It is bit-identical to k
// consecutive Step calls, but when the network goes quiescent mid-span —
// nothing queued, in flight, pending, or buffered anywhere — it switches
// to the idle fast path, which executes only the stateful slice of each
// cycle (see idleRun). Drivers with gaps between injections (tape replay,
// drain tails) route them through here to collect the speedup.
func (n *Network) RunCycles(k int64) {
	end := n.now + k
	if !n.skipOK {
		for n.now < end {
			n.Step()
		}
		return
	}
	for n.now < end {
		if n.Outstanding() == 0 {
			n.idleRun(end)
			return
		}
		n.Step()
	}
}

// idleRun advances a quiescent network to cycle end, executing per cycle
// only the phases that carry state when nothing is outstanding, in the
// exact order Step would:
//
//   - arrivals, handshake delivery, timeouts, ejection, held-token
//     launches, pipeline pop and invariants are provably no-ops: every
//     delay line, buffer and queue is empty, no retransmit timer is armed
//     (Outstanding counts un-ACKed retention copies), and no global token
//     is held (a holder releases in the send cycle once its queue empties);
//   - the token phase is NOT a no-op — fairness windows roll, slot tokens
//     expire and re-emit, credits ride tokens home, global tokens
//     circulate, watchdogs observe silence — so it runs in full, in the
//     same rotated channel order as Step;
//   - quiescence is absorbing: with no requesters (empty queues mean an
//     empty requester set) no capture, grant or launch can occur, so
//     eligibility never needs re-checking inside the loop.
//
// Afterwards the skipped clocks (injection pipeline, per-channel data and
// handshake lines — all empty) are fast-forwarded so later Schedule and
// PopDue calls see a current horizon. No digest event can be emitted in an
// idle cycle on either path, so digests are bit-identical by construction;
// the skip-ahead equivalence battery asserts it.
func (n *Network) idleRun(end int64) {
	for n.now < end {
		now := n.now
		start := int(now) % len(n.chans)
		for i := range n.chans {
			c := &n.chans[(start+i)%len(n.chans)]
			if c.fair.BeginCycle(now) && n.wantNodes[c.home] > 0 {
				panic("core: idle skip-ahead with live requesters")
			}
			c.advance(now)
		}
		n.now++
	}
	n.injPipe.SkipTo(n.now)
	for i := range n.chans {
		c := &n.chans[i]
		c.data.SkipTo(n.now)
		if c.hs != nil {
			c.hs.SkipTo(n.now)
		}
	}
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

// phaseEject drains the home buffer to the cores and frees credits.
func (n *Network) phaseEject(c *channel, now int64) {
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
}

// phaseTokens advances channel c's arbitration by one cycle: the
// scheme-independent fairness window accounting, then the protocol's bound
// token-motion closure.
func (n *Network) phaseTokens(c *channel, now int64) {
	if c.fair.BeginCycle(now) && n.wantNodes[c.home] > 0 {
		// A new fairness window opened: re-register the still-backlogged
		// requesters (in ascending id) so sustained contention is counted,
		// not just newly arriving heads.
		for wi, w := range n.wantRow(c.home) {
			for ; w != 0; w &= w - 1 {
				c.fair.OnRequest(wi<<6 | bits.TrailingZeros64(w))
			}
		}
	}
	c.advance(now)
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

	// Global token holders (schemes with a launchHeld hook).
	for i := range n.chans {
		if c := &n.chans[i]; c.launchHeld != nil {
			c.launchHeld(now)
		}
	}
}

// pickQueue selects, round-robin from the node's SA pointer, a queue whose
// next-ready packet is bound for home h.
func (n *Network) pickQueue(nd *nodeState, h int) (*nodeState, *queueState, *router.Packet) {
	qs := n.nodeQueues(nd.id)
	k := len(qs)
	for i := 0; i < k; i++ {
		q := &qs[(nd.rr+i)%k]
		if q.want != h {
			continue
		}
		pkt := q.out.NextReady()
		if pkt == nil || pkt.Dst != h {
			panic("core: queue want out of sync with its ready packet")
		}
		nd.rr = (nd.rr + i + 1) % k
		return nd, q, pkt
	}
	return nd, nil, nil
}

// launch sends pkt from node nd's queue q onto channel c.
func (n *Network) launch(nd *nodeState, q *queueState, c *channel, pkt *router.Packet) {
	retx := pkt.FirstSentAt >= 0
	off := n.geom.Offset(c.home, nd.id)
	q.out.MarkSent(pkt, n.now)
	var err error
	if c.glob != nil {
		_, err = c.data.LaunchStream(n.now, off, pkt)
	} else {
		_, err = c.data.Launch(n.now, off, pkt)
	}
	if err != nil {
		panic(err)
	}
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
		if !q.out.Enqueue(pkt) {
			n.stats.QueueRejected++
			n.release(pkt)
			continue
		}
		pkt.EnqueuedAt = now
		n.emit(EvEnqueue, pkt)
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
		n.wantNodes[old]--
		n.wantMask[old*n.wantWords+word] &^= bit
	}
	if want >= 0 && !n.wants(want, nd.id) {
		n.chans[want].fair.OnRequest(nd.id)
		n.wantNodes[want]++
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

// Backlog reports the exact number of injected-but-undelivered packets
// the network currently holds, locating each packet exactly once: in an
// injection pipeline, in an output queue, on a waveguide, in a home input
// buffer, or orphaned — its only live copy destroyed (NACK-dropped with
// the retransmission still owed, or fault-discarded with the sender's
// retention copy awaiting its timeout). Duplicate copies launched by
// timeout recovery are subtracted from the in-flight count so each packet
// is still counted once; on fault-free runs orphans == Drops - Retransmits
// and the duplicate count is zero, reducing to the seed formula.
// Sent-but-unACKed retention copies are deliberately *not* counted — the
// real packet is already located downstream (or delivered, with its ACK
// still in flight) — so the conservation identity
// Injected == Delivered + Backlog + QueueRejected + Lost holds at every
// cycle; internal/check audits it.
func (n *Network) Backlog() int {
	total := n.injPipe.Len() + n.orphans - n.dupsInFlight
	for i := range n.queues {
		total += n.queues[i].out.QueueLen()
	}
	for i := range n.chans {
		total += n.chans[i].data.InFlight() + n.chans[i].in.Occupied()
	}
	return total
}

// Outstanding reports everything the network still *owns*, retention
// copies included: queued, sent-but-unACKed, in flight, buffered at homes,
// or in injection pipelines. It over-counts packets relative to Backlog
// (a HoldHead/Setaside sender keeps a copy while the packet flies) but is
// the correct quiescence predicate: zero means no node holds any protocol
// state, so Drain stops on it.
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
	for i := int64(0); i < limit && n.Outstanding() > 0; i++ {
		n.Step()
	}
	if left := n.Outstanding(); left > 0 {
		return left, &DrainError{Scheme: n.spec.Name, Cycles: limit, Outstanding: left}
	}
	return 0, nil
}

// Result finalises and returns the run's measurements.
func (n *Network) Result() Result {
	n.stats.TokensYielded = 0
	for i := range n.chans {
		n.stats.TokensYielded += n.chans[i].fair.Yields()
	}
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
