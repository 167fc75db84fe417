package router

import "fmt"

// desc is a queued packet behind its output queue's head: every field a
// packet has set while it waits there. A packet entering a queue has been
// created, routed, classed and stamped EnqueuedAt; ReadyAt and every later
// timestamp are still unset, and its one holder is the queue (DESIGN.md,
// "Packet lifetime"). Ids, tags and creation cycles keep their full width;
// node ids are packed into 16 bits and the pipeline delay into 23, both
// far above the node and depth caps Config validation enforces (4096 and
// 1<<20). compact panics on a packet that does not fit.
type desc struct {
	id, tag  uint64
	created  int64
	src, dst uint16
	// meta is EnqueuedAt-CreatedAt in bits 0-22, Class in bits 23-30 and
	// Measured in bit 31.
	meta uint32
}

const (
	offBits     = 23
	classShift  = offBits
	measuredBit = 1 << 31
)

// segLen is the descriptor count of one segment. Short segments keep what
// a port holds beyond its backlog small: on the bench workloads 8 entries
// allocate within 4 % of 4, while 32 allocate up to 27 % more.
const segLen = 8

// segment is a fixed block of queued descriptors; a queue links them
// head to tail, so growing never copies.
type segment struct {
	d    [segLen]desc
	next *segment
}

// Pool is one network's free lists: the packets the engine has finished
// with, and the descriptor segments of its output queues. A packet taken
// from it is either fresh (Get) or a queue head built from its descriptor
// (build); a packet put back is one the engine let go or one a queue
// compacted into a descriptor.
type Pool struct {
	free []*Packet
	segs *segment
	// poison makes Put overwrite a packet instead of recycling it, so
	// whatever reads a packet after it was let go or compacted reads
	// garbage rather than the packet's next life. Tests set it.
	poison bool
}

// NewPool returns an empty pool; poison selects the poisoning Put.
func NewPool(poison bool) *Pool { return &Pool{poison: poison} }

// Get returns a packet with all timestamps unset, held once by its
// creator: a recycled one when the pool has one.
func (pl *Pool) Get(id uint64, src, dst int, created int64) *Packet {
	if p := pl.recycled(); p != nil {
		p.Reset(id, src, dst, created)
		return p
	}
	return NewPacket(id, src, dst, created)
}

// recycled pops a packet off the free list, or returns nil.
func (pl *Pool) recycled() *Packet {
	k := len(pl.free) - 1
	if k < 0 {
		return nil
	}
	p := pl.free[k]
	pl.free = pl.free[:k]
	return p
}

// Put takes back a packet nothing holds or reads any more.
func (pl *Pool) Put(p *Packet) {
	if pl.poison {
		const never = -1 << 62
		*p = Packet{ID: ^uint64(0), Src: -1, Dst: -1,
			CreatedAt: never, EnqueuedAt: never, ReadyAt: never, FirstSentAt: never,
			SentAt: never, DeliveredAt: never, AcceptedAt: never}
		return
	}
	pl.free = append(pl.free, p)
}

// compact returns the descriptor of p, which is entering a queue behind a
// built head, and puts p back: the queue's hold passes to the descriptor.
func (pl *Pool) compact(p *Packet) desc {
	off := p.EnqueuedAt - p.CreatedAt
	if p.holders != 1 || p.ReadyAt >= 0 || p.FirstSentAt >= 0 {
		panic(fmt.Sprintf("router: queueing packet %d held %d times or already ready", p.ID, p.holders))
	}
	if uint(p.Src) > 0xffff || uint(p.Dst) > 0xffff || off < 0 || off >= 1<<offBits {
		panic(fmt.Sprintf("router: packet %d (nodes %d->%d, pipeline %d) does not fit a queue descriptor", p.ID, p.Src, p.Dst, off))
	}
	meta := uint32(off) | uint32(p.Class)<<classShift
	if p.Measured {
		meta |= measuredBit
	}
	d := desc{id: p.ID, tag: p.Tag, created: p.CreatedAt, src: uint16(p.Src), dst: uint16(p.Dst), meta: meta}
	pl.Put(p)
	return d
}

// build returns the packet d describes, held once by its queue.
func (pl *Pool) build(d *desc) *Packet {
	p := pl.recycled()
	if p == nil {
		p = new(Packet)
	}
	*p = Packet{
		ID: d.id, Src: int(d.src), Dst: int(d.dst),
		CreatedAt:   d.created,
		EnqueuedAt:  d.created + int64(d.meta&(1<<offBits-1)),
		ReadyAt:     -1,
		FirstSentAt: -1,
		SentAt:      -1,
		DeliveredAt: -1,
		AcceptedAt:  -1,
		Measured:    d.meta&measuredBit != 0,
		Class:       Class(d.meta >> classShift & 0xff),
		holders:     1,
		Tag:         d.tag,
	}
	return p
}

// seg returns an empty segment.
func (pl *Pool) seg() *segment {
	s := pl.segs
	if s == nil {
		return new(segment)
	}
	pl.segs, s.next = s.next, nil
	return s
}

// putSeg takes back a segment no queue links any more.
func (pl *Pool) putSeg(s *segment) {
	s.next = pl.segs
	pl.segs = s
}
