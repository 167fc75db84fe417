package swmr

import (
	"fmt"

	"photon/internal/ring"
	"photon/internal/router"
	"photon/internal/sim"
)

// The electrical router latencies, in cycles, as on the MWSR ring: the
// 2-stage injection pipeline and a 1-cycle ejection.
const (
	routerPipeline = 2
	ejectLatency   = 1
)

// Network is one cycle-accurate SWMR simulation instance. Each node owns
// the channel it writes (no sender arbitration, at most one launch per
// node per cycle); receivers bound simultaneous arrivals with RxPorts and
// a shared input buffer.
type Network struct {
	cfg    Config
	geom   *ring.Geometry
	window sim.Window
	now    int64
	nextID uint64

	nodes []*nodeState
	rxs   []*rxState

	stats *Stats
	rng   *sim.RNG

	injPipe *sim.DelayLine[*router.Packet]
	// pool builds injected packets and holds the output queues'
	// descriptors; delivered packets are never recycled.
	pool *router.Pool

	// pendingGrants are reservation grants in flight back to senders.
	pendingGrants []pendingGrant

	// OnDeliver fires for every delivered packet.
	OnDeliver func(*router.Packet)
}

// nodeState is the sender side of one node.
type nodeState struct {
	id     int
	queues []*router.OutPort
	rr     int

	// Reservation state: at most one outstanding request per node. The
	// serialisation is deliberate — it keeps the receiver's arrival-slot
	// bookkeeping exact (the grant fixes the launch cycle), and it is
	// faithful to per-message circuit-setup flow control, whose setup
	// round trip per packet is exactly the inefficiency the handshake
	// disciplines remove.
	reqOutstanding bool
	reqQueue       int  // queue whose head the request covers
	granted        bool // a grant arrived; launch this cycle
}

// rxState is the receiver side of one node.
type rxState struct {
	in *router.InPort
	// arrivals carries data flits addressed to this node (any sender's
	// channel), possibly several per cycle.
	arrivals *sim.DelayLine[*router.Packet]
	// acks carries handshake answers back out of this receiver; keyed by
	// the cycle they reach their sender.
	acks *sim.DelayLine[ring.Ack]
	// requests carries reservation requests inbound to this receiver.
	requests *sim.DelayLine[requestMsg]
	// deferred holds requests that could not be granted yet (FIFO).
	deferred *sim.Queue[requestMsg]

	// Reservation accounting: every buffer slot is free, promised (grant
	// issued, data not yet arrived), or occupied.
	free     int
	promised int
	// portsReserved[cycle % len] counts reserved arrival ports.
	portsReserved []int
}

type requestMsg struct {
	sender   int
	queue    int
	issuedAt int64
}

// NewNetwork builds an SWMR network measuring over window.
func NewNetwork(cfg Config, window sim.Window) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom, err := ring.NewGeometry(cfg.Nodes, cfg.RoundTrip)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:     cfg,
		geom:    geom,
		window:  window,
		stats:   newStats(window, cfg.Cores()),
		rng:     sim.NewRNG(cfg.Seed),
		injPipe: sim.NewDelayLine[*router.Packet](routerPipeline + 2),
		pool:    router.NewPool(false),
	}
	horizon := 2*cfg.RoundTrip + 6
	n.nodes = make([]*nodeState, cfg.Nodes)
	n.rxs = make([]*rxState, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		nd := &nodeState{id: i, queues: make([]*router.OutPort, cfg.CoresPerNode)}
		for q := range nd.queues {
			nd.queues[q] = router.NewOutPort(cfg.Scheme.sendPolicy(), 0, cfg.SetasideSize, n.pool)
		}
		n.nodes[i] = nd
		n.rxs[i] = &rxState{
			in:            router.NewInPort(cfg.BufferDepth, cfg.EjectRate, cfg.EjectStallProb, n.rng.Fork(uint64(i)+2000)),
			arrivals:      sim.NewDelayLine[*router.Packet](horizon),
			acks:          sim.NewDelayLine[ring.Ack](horizon),
			requests:      sim.NewDelayLine[requestMsg](horizon),
			deferred:      sim.NewQueue[requestMsg](0),
			free:          cfg.BufferDepth,
			portsReserved: make([]int, horizon+1),
		}
	}
	return n, nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Window returns the measurement window.
func (n *Network) Window() sim.Window { return n.window }

// Stats exposes the live collector.
func (n *Network) Stats() *Stats { return n.stats }

// flightTo returns the data flight time from src to dst on src's channel.
func (n *Network) flightTo(src, dst int) int {
	return n.geom.Segment(n.geom.Offset(src, dst))
}

// Inject hands a packet from srcCore to the router, as in the MWSR
// network; node-local packets bypass the optics. It returns the packet's
// id: a queued packet is kept as a descriptor, so the delivered one is
// read through OnDeliver.
func (n *Network) Inject(srcCore, dstNode int, class router.Class, tag uint64) uint64 {
	if srcCore < 0 || srcCore >= n.cfg.Cores() {
		panic(fmt.Sprintf("swmr: Inject from invalid core %d", srcCore))
	}
	if dstNode < 0 || dstNode >= n.cfg.Nodes {
		panic(fmt.Sprintf("swmr: Inject to invalid node %d", dstNode))
	}
	src := srcCore / n.cfg.CoresPerNode
	pkt := n.pool.Get(n.nextID, src, dstNode, n.now)
	n.nextID++
	pkt.Class = class
	pkt.Tag = tag | uint64(srcCore)<<40
	n.stats.Injected++
	if n.window.InMeasure(pkt.CreatedAt) {
		pkt.Measured = true
		n.stats.InjectedMeasured++
	}
	n.injPipe.Schedule(n.now, n.now+routerPipeline, pkt)
	return pkt.ID
}

// Step advances the network one cycle.
func (n *Network) Step() {
	now := n.now
	n.phaseArrivals(now)
	n.phaseAcksAndGrants(now)
	n.phaseEject(now)
	n.phaseRequests(now)
	n.phaseLaunch(now)
	n.phasePipeline(now)
	n.now++
}

// RunCycles advances k cycles.
func (n *Network) RunCycles(k int64) {
	for i := int64(0); i < k; i++ {
		n.Step()
	}
}

// phaseArrivals lands this cycle's data flits at each receiver. Arrival
// service order rotates with the cycle so no sender gets a systematic
// port-priority advantage.
func (n *Network) phaseArrivals(now int64) {
	for _, rx := range n.rxs {
		flits := rx.arrivals.PopDue(now)
		if n.cfg.Scheme == Reservation {
			// This cycle's port reservations are consumed by this
			// cycle's arrivals; recycle the slot for future bookings.
			rx.portsReserved[now%int64(len(rx.portsReserved))] = 0
		}
		if len(flits) == 0 {
			continue
		}
		start := int(now) % len(flits)
		ports := 0
		for i := range flits {
			pkt := flits[(start+i)%len(flits)]
			switch n.cfg.Scheme {
			case Reservation:
				// Ports and a buffer slot were reserved at grant time.
				if ports >= n.cfg.RxPorts {
					panic("swmr: reservation overbooked rx ports")
				}
				if !rx.in.Accept(pkt) {
					panic("swmr: reservation overbooked the input buffer")
				}
				rx.promised--
				if rx.promised < 0 {
					panic("swmr: arrival without a promise")
				}
				ports++
			default: // handshake flavours
				ok := ports < n.cfg.RxPorts && rx.in.HasSpace()
				portDrop := ports >= n.cfg.RxPorts
				if ok {
					if !rx.in.Accept(pkt) {
						panic("swmr: HasSpace lied")
					}
					ports++
				} else {
					n.stats.Drops++
					if portDrop {
						n.stats.PortDrops++
					}
				}
				back := int64(n.geom.Segment(n.geom.Offset(pkt.Dst, pkt.Src)))
				rx.acks.Schedule(now, now+back, ring.Ack{To: pkt.Src, PacketID: pkt.ID, Positive: ok})
			}
		}
	}
}

// phaseAcksAndGrants delivers handshake answers and reservation grants to
// senders.
func (n *Network) phaseAcksAndGrants(now int64) {
	for _, rx := range n.rxs {
		for _, ack := range rx.acks.PopDue(now) {
			nd := n.nodes[ack.To]
			var done bool
			for _, q := range nd.queues {
				var err error
				if ack.Positive {
					_, err = q.Ack(ack.PacketID)
				} else {
					_, err = q.Nack(ack.PacketID)
				}
				if err == nil {
					done = true
					break
				}
			}
			if !done {
				panic(fmt.Sprintf("swmr: handshake for unknown packet %d at node %d", ack.PacketID, ack.To))
			}
		}
	}
}

// phaseEject drains receiver buffers.
func (n *Network) phaseEject(now int64) {
	for _, rx := range n.rxs {
		for _, pkt := range rx.in.Eject() {
			if n.cfg.Scheme == Reservation {
				rx.free++
			}
			pkt.DeliveredAt = now + ejectLatency
			n.onDelivered(pkt)
		}
	}
}

func (n *Network) onDelivered(pkt *router.Packet) {
	n.stats.Delivered++
	if n.window.InMeasure(pkt.DeliveredAt) {
		n.stats.DeliveredInWindow++
	}
	if pkt.Measured {
		n.stats.Latency.Add(pkt.Latency())
	}
	if n.OnDeliver != nil {
		n.OnDeliver(pkt)
	}
}

// phaseRequests processes reservation requests reaching receivers and
// issues grants when a buffer slot and the arrival cycle's port are free.
func (n *Network) phaseRequests(now int64) {
	if n.cfg.Scheme != Reservation {
		return
	}
	for dst, rx := range n.rxs {
		for _, req := range rx.requests.PopDue(now) {
			rx.deferred.PushBack(req)
		}
		// Grant in FIFO order while resources allow.
		for {
			req, ok := rx.deferred.Peek()
			if !ok {
				break
			}
			backDelay := int64(n.geom.Segment(n.geom.Offset(dst, req.sender)))
			grantAt := now + backDelay
			launchAt := grantAt // the sender launches the cycle the grant lands
			arriveAt := launchAt + int64(n.flightTo(req.sender, dst))
			slot := arriveAt % int64(len(rx.portsReserved))
			if rx.free == 0 || rx.portsReserved[slot] >= n.cfg.RxPorts {
				break // head-of-line defer; retry next cycle
			}
			rx.deferred.PopFront()
			rx.free--
			rx.promised++
			rx.portsReserved[slot]++
			n.pendingGrants = append(n.pendingGrants, pendingGrant{
				at: grantAt, sender: req.sender, queue: req.queue, issuedAt: req.issuedAt,
			})
		}
	}
	// Deliver grants due this cycle.
	kept := n.pendingGrants[:0]
	for _, g := range n.pendingGrants {
		if g.at != now {
			kept = append(kept, g)
			continue
		}
		nd := n.nodes[g.sender]
		if !nd.reqOutstanding || nd.reqQueue != g.queue {
			panic("swmr: grant for a request that is not outstanding")
		}
		nd.granted = true
		n.stats.Reservations++
		n.stats.ResWait.Add(now - g.issuedAt)
	}
	n.pendingGrants = kept
}

type pendingGrant struct {
	at       int64
	sender   int
	queue    int
	issuedAt int64
}

// phaseLaunch issues this cycle's sends and, under reservation, new
// requests.
func (n *Network) phaseLaunch(now int64) {
	for _, nd := range n.nodes {
		switch n.cfg.Scheme {
		case Reservation:
			if nd.granted {
				q := nd.queues[nd.reqQueue]
				pkt := q.NextReady()
				if pkt == nil {
					panic("swmr: grant arrived for an empty queue")
				}
				n.launch(nd, q, pkt, now)
				nd.granted = false
				nd.reqOutstanding = false
			}
			if !nd.reqOutstanding {
				// Issue a request for the next ready head (SA round-robin).
				k := len(nd.queues)
				for i := 0; i < k; i++ {
					qi := (nd.rr + i) % k
					pkt := nd.queues[qi].NextReady()
					if pkt == nil {
						continue
					}
					if pkt.ReadyAt < 0 {
						pkt.ReadyAt = now
					}
					nd.rr = (qi + 1) % k
					nd.reqOutstanding = true
					nd.reqQueue = qi
					dst := pkt.Dst
					reach := int64(n.geom.Segment(n.geom.Offset(nd.id, dst)))
					n.rxs[dst].requests.Schedule(now, now+reach, requestMsg{sender: nd.id, queue: qi, issuedAt: now})
					break
				}
			}
		default: // handshake flavours: launch the SA-selected ready head
			k := len(nd.queues)
			for i := 0; i < k; i++ {
				qi := (nd.rr + i) % k
				q := nd.queues[qi]
				pkt := q.NextReady()
				if pkt == nil {
					continue
				}
				if pkt.ReadyAt < 0 {
					pkt.ReadyAt = now
				}
				nd.rr = (qi + 1) % k
				n.launch(nd, q, pkt, now)
				break
			}
		}
	}
}

// launch puts pkt onto nd's own channel.
func (n *Network) launch(nd *nodeState, q *router.OutPort, pkt *router.Packet, now int64) {
	retx := pkt.FirstSentAt >= 0
	q.MarkSent(pkt, now)
	n.rxs[pkt.Dst].arrivals.Schedule(now, now+int64(n.flightTo(nd.id, pkt.Dst)), pkt)
	n.stats.Launches++
	if retx {
		n.stats.Retransmits++
	}
}

// phasePipeline moves injected packets into output queues.
func (n *Network) phasePipeline(now int64) {
	for _, pkt := range n.injPipe.PopDue(now) {
		if pkt.Dst == pkt.Src {
			pkt.DeliveredAt = now + ejectLatency
			n.stats.LocalDelivered++
			n.onDelivered(pkt)
			continue
		}
		nd := n.nodes[pkt.Src]
		core := int(pkt.Tag>>40) % n.cfg.CoresPerNode
		pkt.EnqueuedAt = now
		nd.queues[core].Enqueue(pkt) // unbounded: never full
	}
}

// Backlog reports packets still owned anywhere.
func (n *Network) Backlog() int {
	total := n.injPipe.Len()
	for _, nd := range n.nodes {
		for _, q := range nd.queues {
			total += q.Backlog()
		}
	}
	for _, rx := range n.rxs {
		total += rx.arrivals.Len() + rx.in.Occupied()
	}
	return total
}

// Drain steps without new traffic until empty or limit.
func (n *Network) Drain(limit int64) int {
	for i := int64(0); i < limit && n.Backlog() > 0; i++ {
		n.Step()
	}
	return n.Backlog()
}

// Result finalises the run.
func (n *Network) Result() Result { return n.stats.finish(n.cfg.Scheme) }

// CheckInvariants verifies reservation conservation at every receiver:
// free + promised + occupied slots account for the whole buffer, and no
// future arrival cycle is overbooked. It panics on violation (tests call
// it between steps).
func (n *Network) CheckInvariants() {
	if n.cfg.Scheme != Reservation {
		return
	}
	for id, rx := range n.rxs {
		sum := rx.free + rx.promised + rx.in.Occupied()
		if sum != n.cfg.BufferDepth {
			panic(fmt.Sprintf("swmr: receiver %d leaks buffer slots: free %d + promised %d + occupied %d != depth %d",
				id, rx.free, rx.promised, rx.in.Occupied(), n.cfg.BufferDepth))
		}
		for slot, c := range rx.portsReserved {
			if c > n.cfg.RxPorts {
				panic(fmt.Sprintf("swmr: receiver %d overbooked slot %d (%d > %d ports)", id, slot, c, n.cfg.RxPorts))
			}
			if c < 0 {
				panic(fmt.Sprintf("swmr: receiver %d negative port reservation at slot %d", id, slot))
			}
		}
	}
}
