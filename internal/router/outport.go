package router

import "fmt"

// SendPolicy selects what happens to a packet at the moment it is launched
// onto the optical channel — the axis along which the paper's schemes
// differ at the sender.
type SendPolicy int

const (
	// FireAndForget removes the packet from the sender immediately:
	// credit-based schemes (delivery is guaranteed) and DHS with
	// circulation (the receiver reinjects instead of dropping).
	FireAndForget SendPolicy = iota
	// HoldHead keeps the sent packet logically at the head of the queue
	// until its ACK arrives — basic GHS/DHS. The queue is blocked
	// meanwhile: the paper's head-of-line problem.
	HoldHead
	// Setaside moves the sent packet into a small side buffer to await its
	// ACK, freeing the head for the next packet.
	Setaside
)

func (p SendPolicy) String() string {
	switch p {
	case FireAndForget:
		return "fire-and-forget"
	case HoldHead:
		return "hold-head"
	case Setaside:
		return "setaside"
	default:
		return "policy?"
	}
}

// pendingEntry is a sent-but-unacknowledged packet.
type pendingEntry struct {
	pkt       *Packet
	needsRetx bool

	// Retransmit-timeout state (fault recovery). deadline is the cycle at
	// which the sender gives up waiting for the handshake answer and
	// schedules a retransmission; 0 means the timer is not armed (a
	// deadline can never legitimately be cycle 0 — launches happen at or
	// after cycle 0 and the timeout base is positive). backoff is the
	// consecutive-timeout count driving exponential backoff; it resets on
	// any received answer, because backoff compensates for *silence* (lost
	// pulses), not for congestion — a NACK is a definitive answer.
	deadline int64
	backoff  int
}

// OutPort is one node's output side: the FIFO output queue in front of E/O
// conversion plus the pending/setaside machinery of the active send policy.
//
// Arbitration interacts with the port through NextReady (which packet wants
// the channel — retransmissions first, then the queue head if the policy
// permits) and MarkSent (the packet was launched this cycle).
//
// Only the queue's head is a built Packet. Every packet behind it is kept
// as a descriptor in a chain of fixed segments from the network's Pool,
// and is built when it reaches the head: past a scheme's knee almost every
// packet the network owns waits in a queue, and a descriptor takes 32
// bytes where a Packet takes 104.
type OutPort struct {
	policy      SendPolicy
	head        *Packet        // the queue's head, nil when the queue is empty
	first, last *segment       // the descriptors behind head, oldest first
	lo, hi      int            // first's oldest descriptor; one past last's newest
	behind      int            // descriptors behind head
	queueCap    int            // bound on head plus descriptors; 0 = unbounded
	pool        *Pool          // where compacted packets and emptied segments go
	setaside    []pendingEntry // used by Setaside policy, cap setasideCap
	setasideCap int
	pending     pendingEntry // used by HoldHead policy, valid iff hasPending
	hasPending  bool
}

// NewOutPort builds an output port drawing on pool. queueCap bounds the
// output queue (0 = unbounded, the open-loop evaluation default);
// setasideCap is the number of setaside slots and only meaningful under
// the Setaside policy.
func NewOutPort(policy SendPolicy, queueCap, setasideCap int, pool *Pool) *OutPort {
	if policy == Setaside && setasideCap < 1 {
		panic("router: setaside policy needs at least one setaside slot")
	}
	o := &OutPort{
		policy:      policy,
		queueCap:    queueCap,
		pool:        pool,
		setasideCap: setasideCap,
	}
	if policy == Setaside {
		o.setaside = make([]pendingEntry, 0, setasideCap)
	}
	return o
}

// Policy returns the port's send policy.
func (o *OutPort) Policy() SendPolicy { return o.policy }

// Full reports whether a bounded output queue has no room left.
func (o *OutPort) Full() bool { return o.queueCap > 0 && o.QueueLen() >= o.queueCap }

// Enqueue admits p, stamped EnqueuedAt and held once, into the output
// queue, which must not be Full. Behind a head, p is compacted into a
// descriptor and given back to the pool with the queue's hold kept by the
// descriptor, so the caller must be done with the pointer: p is the
// caller's to read again only if it became the head (NextReady).
func (o *OutPort) Enqueue(p *Packet) {
	if o.Full() {
		panic("router: enqueue into a full output queue")
	}
	if o.head == nil {
		o.head = p
		return
	}
	if o.last == nil || o.hi == segLen {
		s := o.pool.seg()
		if o.last == nil {
			o.first, o.lo = s, 0
		} else {
			o.last.next = s
		}
		o.last, o.hi = s, 0
	}
	o.last.d[o.hi] = o.pool.compact(p)
	o.hi++
	o.behind++
}

// advance replaces the launched head with the packet built from the
// oldest descriptor, and gives emptied segments back to the pool.
func (o *OutPort) advance() {
	if o.behind == 0 {
		o.head = nil
		return
	}
	o.head = o.pool.build(&o.first.d[o.lo])
	o.lo++
	if o.behind--; o.behind == 0 {
		o.pool.putSeg(o.first)
		o.first, o.last = nil, nil
	} else if o.lo == segLen {
		s := o.first
		o.first, o.lo = s.next, 0
		o.pool.putSeg(s)
	}
}

// QueueLen reports output queue occupancy (excluding pending/setaside).
func (o *OutPort) QueueLen() int {
	if o.head == nil {
		return 0
	}
	return 1 + o.behind
}

// Unacked reports the number of sent packets awaiting handshake.
func (o *OutPort) Unacked() int {
	n := len(o.setaside)
	if o.hasPending {
		n++
	}
	return n
}

// Backlog reports every packet still owned by the port (for drain checks).
func (o *OutPort) Backlog() int { return o.QueueLen() + o.Unacked() }

// NextReady returns the packet that should compete for channel arbitration
// this cycle, or nil. Priority order:
//
//  1. a NACKed packet awaiting retransmission (the oldest one) — it is the
//     oldest traffic the node holds and retransmitting it first preserves
//     point-to-point ordering as far as possible;
//  2. the head of the output queue, provided the policy allows a new
//     launch (HoldHead: nothing pending; Setaside: a free setaside slot).
func (o *OutPort) NextReady() *Packet {
	if o.hasPending {
		if o.pending.needsRetx {
			return o.pending.pkt
		}
		if o.policy == HoldHead {
			// Head is blocked behind the un-ACKed packet.
			return nil
		}
	}
	for i := range o.setaside {
		if o.setaside[i].needsRetx {
			return o.setaside[i].pkt
		}
	}
	if o.policy == Setaside && len(o.setaside) >= o.setasideCap {
		return nil
	}
	return o.head
}

// MarkSent records that pkt — which must be the current NextReady — was
// launched at cycle now, applying the policy's state transition.
func (o *OutPort) MarkSent(pkt *Packet, now int64) {
	pkt.SentAt = now
	if pkt.FirstSentAt < 0 {
		pkt.FirstSentAt = now
	}

	// Retransmission of the held packet?
	if o.hasPending && o.pending.pkt == pkt {
		if !o.pending.needsRetx {
			panic("router: re-sending a packet that is still awaiting its handshake")
		}
		o.pending.needsRetx = false
		pkt.Retransmissions++
		return
	}
	// Retransmission from setaside?
	for i := range o.setaside {
		if o.setaside[i].pkt == pkt {
			if !o.setaside[i].needsRetx {
				panic("router: re-sending a setaside packet that is still awaiting its handshake")
			}
			o.setaside[i].needsRetx = false
			pkt.Retransmissions++
			return
		}
	}

	// First launch: must be the queue head.
	if o.head != pkt {
		panic("router: MarkSent for a packet that is not ready")
	}
	o.advance()
	switch o.policy {
	case FireAndForget:
		// Sender forgets the packet; delivery is the receiver's problem
		// (guaranteed by credits, or by circulation).
	case HoldHead:
		if o.hasPending {
			panic("router: HoldHead launched with a packet already pending")
		}
		o.pending = pendingEntry{pkt: pkt}
		o.hasPending = true
	case Setaside:
		if len(o.setaside) >= o.setasideCap {
			panic("router: setaside overflow on launch")
		}
		o.setaside = append(o.setaside, pendingEntry{pkt: pkt})
	}
}

// entryFor returns the pending/setaside entry holding pkt, or nil.
func (o *OutPort) entryFor(pkt *Packet) *pendingEntry {
	if o.hasPending && o.pending.pkt == pkt {
		return &o.pending
	}
	for i := range o.setaside {
		if o.setaside[i].pkt == pkt {
			return &o.setaside[i]
		}
	}
	return nil
}

// Arm starts the retransmit timer for pkt, which must have just been
// launched (MarkSent) under a retaining policy. The deadline is
// now + base<<min(backoff, capExp): the base timeout doubles with each
// consecutive unanswered launch, capped so a long outage cannot push the
// deadline out indefinitely. Returns the armed deadline.
func (o *OutPort) Arm(pkt *Packet, now, base int64, capExp int) int64 {
	e := o.entryFor(pkt)
	if e == nil {
		panic("router: arming a retransmit timer for a packet the port does not hold")
	}
	shift := e.backoff
	if shift > capExp {
		shift = capExp
	}
	e.deadline = now + base<<shift
	return e.deadline
}

// ExpireTimeouts fires every armed timer whose deadline has arrived
// (deadline <= now) and is still unanswered: the entry is marked for
// retransmission, its backoff level increments, and fire is called with
// the packet. An answer processed earlier in the same cycle wins — the
// handshake-delivery phase runs before the timeout phase, so an ACK
// arriving exactly at the deadline cancels the timer (it removed the
// entry) rather than racing it. Returns the number of timers fired.
func (o *OutPort) ExpireTimeouts(now int64, fire func(*Packet)) int {
	fired := 0
	expire := func(e *pendingEntry) {
		if e.deadline <= 0 || now < e.deadline || e.needsRetx {
			return
		}
		e.deadline = 0
		e.backoff++
		e.needsRetx = true
		fired++
		if fire != nil {
			fire(e.pkt)
		}
	}
	if o.hasPending {
		expire(&o.pending)
	}
	for i := range o.setaside {
		expire(&o.setaside[i])
	}
	return fired
}

// Ack resolves a positive handshake for packet id, releasing it from the
// pending/setaside state. It returns the acknowledged packet.
func (o *OutPort) Ack(id uint64) (*Packet, error) {
	if o.hasPending && o.pending.pkt.ID == id {
		pkt := o.pending.pkt
		if o.pending.needsRetx {
			return nil, fmt.Errorf("router: ACK for packet %d which is marked for retransmission", id)
		}
		o.pending = pendingEntry{}
		o.hasPending = false
		return pkt, nil
	}
	for i := range o.setaside {
		if o.setaside[i].pkt.ID == id {
			if o.setaside[i].needsRetx {
				return nil, fmt.Errorf("router: ACK for packet %d which is marked for retransmission", id)
			}
			pkt := o.setaside[i].pkt
			o.setaside = append(o.setaside[:i], o.setaside[i+1:]...)
			return pkt, nil
		}
	}
	return nil, fmt.Errorf("router: ACK for unknown packet %d", id)
}

// Nack resolves a negative handshake: the packet stays owned by the port
// and becomes eligible for retransmission.
func (o *OutPort) Nack(id uint64) (*Packet, error) {
	if o.hasPending && o.pending.pkt.ID == id {
		o.pending.needsRetx = true
		o.pending.deadline = 0
		o.pending.backoff = 0
		return o.pending.pkt, nil
	}
	for i := range o.setaside {
		if o.setaside[i].pkt.ID == id {
			o.setaside[i].needsRetx = true
			o.setaside[i].deadline = 0
			o.setaside[i].backoff = 0
			return o.setaside[i].pkt, nil
		}
	}
	return nil, fmt.Errorf("router: NACK for unknown packet %d", id)
}
