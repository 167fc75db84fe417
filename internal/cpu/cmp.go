// Package cpu implements the closed-loop CMP substrate of the evaluation:
// out-of-order-style cores with a bounded miss window (4 MSHRs per core,
// paper §V-A), a statically-interleaved non-uniform L2 cache (S-NUCA), and
// request/reply memory transactions riding the optical network. The point
// of the model — and the reason the paper builds one — is *self-throttling*:
// a core with all MSHRs outstanding stops injecting, so network behaviour
// feeds back into offered load and ultimately into IPC.
//
// The core model is deliberately compact: each cycle a non-stalled core
// commits IssueWidth instructions and generates an L2 access with the
// benchmark's miss intensity; an access allocates an MSHR and launches a
// request to its S-NUCA home bank; the reply releases the MSHR after the
// bank's access latency. A core stalls only when all MSHRs are busy —
// out-of-order tolerance of outstanding misses, the same abstraction the
// paper's "customized timing-model interface" uses.
package cpu

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/sim"
)

// Params configures the CMP model.
type Params struct {
	// MSHRs bounds outstanding misses per core (4 in the paper).
	MSHRs int
	// IssueWidth is instructions committed per un-stalled cycle.
	IssueWidth int
	// MissPer1kInstr is the L2-bound access intensity (misses per 1000
	// committed instructions) — the knob each benchmark sets.
	MissPer1kInstr float64
	// BankLatency is the L2 bank access time in cycles.
	BankLatency int
	// BanksPerNode is the number of L2 banks per node (2 in the paper:
	// 128 banks on 64 nodes).
	BanksPerNode int
	// Burstiness concentrates misses into memory phases: during a phase
	// the miss intensity is Burstiness x MissPer1kInstr and between
	// phases it is zero, with the duty cycle chosen to preserve the mean.
	// 1 = smooth execution. Bursty phases are what saturate the MSHRs and
	// expose network latency in IPC — without them the 4-entry miss
	// window hides the network entirely.
	Burstiness float64
	// MeanBurst is the mean memory-phase length in cycles.
	MeanBurst float64
	// PhaseSync is the fraction of cores following a single global phase
	// schedule (barrier-style synchronisation).
	PhaseSync float64
	// Seed drives address generation.
	Seed uint64
}

// DefaultParams returns the paper's CMP configuration with a mid-range
// miss intensity.
func DefaultParams() Params {
	return Params{
		MSHRs:          4,
		IssueWidth:     2,
		MissPer1kInstr: 10,
		BankLatency:    6,
		BanksPerNode:   2,
		Burstiness:     1,
		MeanBurst:      200,
		Seed:           1,
	}
}

// Validate reports the first bad parameter.
func (p Params) Validate() error {
	if p.MSHRs < 1 {
		return fmt.Errorf("cpu: MSHRs must be >= 1, got %d", p.MSHRs)
	}
	if p.IssueWidth < 1 {
		return fmt.Errorf("cpu: issue width must be >= 1, got %d", p.IssueWidth)
	}
	if p.MissPer1kInstr < 0 {
		return fmt.Errorf("cpu: miss intensity must be >= 0, got %g", p.MissPer1kInstr)
	}
	if p.BankLatency < 1 {
		return fmt.Errorf("cpu: bank latency must be >= 1, got %d", p.BankLatency)
	}
	if p.BanksPerNode < 1 {
		return fmt.Errorf("cpu: banks per node must be >= 1, got %d", p.BanksPerNode)
	}
	if p.Burstiness < 1 {
		return fmt.Errorf("cpu: burstiness must be >= 1, got %g", p.Burstiness)
	}
	if p.Burstiness > 1 && p.MeanBurst < 1 {
		return fmt.Errorf("cpu: bursty execution needs MeanBurst >= 1, got %g", p.MeanBurst)
	}
	if p.PhaseSync < 0 || p.PhaseSync > 1 {
		return fmt.Errorf("cpu: phase sync must be in [0,1], got %g", p.PhaseSync)
	}
	return nil
}

// CMP couples a set of cores to a network.
type CMP struct {
	params Params
	net    *core.Network
	// nodes and coresPerNode are the network's geometry, read once: the
	// network hands out its Config by value.
	nodes, coresPerNode int

	cores []coreState
	// issuedAt[c*seqs+seq] records when core c's in-flight transaction seq
	// was issued; it lives apart from coreState so the per-cycle walk over
	// the cores strides a few words per core, not a kilobyte.
	issuedAt []int64
	// bank replies in flight (bank access latency).
	bankPipe *sim.DelayLine[pendingReply]

	globalPhase phaseState
	duty        float64
	meanOff     float64

	committed  int64
	stallCyc   int64
	misses     int64
	replies    int64
	roundTrips *welford
}

type coreState struct {
	rng         *sim.RNG
	outstanding int
	// missCredit accumulates fractional misses between instructions.
	missCredit float64
	// synced cores follow the CMP's global phase; the rest run their own.
	synced bool
	phase  phaseState
	// seq numbers this core's transactions (mod seqs) so replies can be
	// matched to their issue time (CMP.issuedAt) for round-trip statistics.
	seq uint64
}

// seqs is how many transaction numbers a core cycles through: the tag
// carries seven bits of it.
const seqs = 128

// phaseState is a two-state (memory/compute) phase process.
type phaseState struct {
	rng    *sim.RNG
	on     bool
	remain int64
}

func newPhase(rng *sim.RNG, duty, meanOn, meanOff float64) phaseState {
	p := phaseState{rng: rng, on: rng.Bernoulli(duty)}
	p.arm(meanOn, meanOff)
	return p
}

func (p *phaseState) arm(meanOn, meanOff float64) {
	if p.on {
		p.remain = 1 + p.rng.Geometric(1/maxf(meanOn, 1))
	} else {
		p.remain = 1 + p.rng.Geometric(1/maxf(meanOff, 1))
	}
}

func (p *phaseState) advance(meanOn, meanOff float64) {
	if p.remain <= 0 {
		p.on = !p.on
		p.arm(meanOn, meanOff)
	}
	p.remain--
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

type pendingReply struct {
	bankCore int // core slot at the bank node used to inject the reply
	dstNode  int
	tag      uint64
}

type welford struct {
	n    int64
	mean float64
}

func (w *welford) add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// New builds a CMP on top of net. It installs itself as the network's
// OnDeliver hook; the caller must not overwrite it.
func New(params Params, net *core.Network) (*CMP, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	cfg := net.Config()
	root := sim.NewRNG(params.Seed)
	m := &CMP{
		params:       params,
		net:          net,
		nodes:        cfg.Nodes,
		coresPerNode: cfg.CoresPerNode,
		cores:        make([]coreState, cfg.Cores()),
		issuedAt:     make([]int64, cfg.Cores()*seqs),
		bankPipe:     sim.NewDelayLine[pendingReply](params.BankLatency + 2),
		roundTrips:   &welford{},
	}
	m.duty = 1 / params.Burstiness
	m.meanOff = params.MeanBurst * (1 - m.duty) / maxf(m.duty, 1e-9)
	m.globalPhase = newPhase(root.Fork(0xFA5E), m.duty, params.MeanBurst, m.meanOff)
	for i := range m.cores {
		rng := root.Fork(uint64(i))
		m.cores[i] = coreState{
			rng:    rng,
			synced: rng.Bernoulli(params.PhaseSync),
			phase:  newPhase(rng.Fork(1), m.duty, params.MeanBurst, m.meanOff),
		}
	}
	net.OnDeliver = m.onDeliver
	return m, nil
}

// txnTag packs (requesting core, transaction kind, sequence) into a packet
// tag. Bits 0..31: requesting core; bit 32: reply flag; bits 33..39: the
// core-local transaction sequence. The network reserves bits 40+ for queue
// routing.
func txnTag(core int, reply bool, seq uint64) uint64 {
	t := uint64(core) | (seq&0x7F)<<33
	if reply {
		t |= 1 << 32
	}
	return t
}

func tagCore(tag uint64) int   { return int(tag & 0xFFFFFFFF) }
func tagReply(tag uint64) bool { return tag&(1<<32) != 0 }
func tagSeq(tag uint64) uint64 { return (tag >> 33) & 0x7F }

// onDeliver handles packet arrivals: requests reach their bank and start
// the bank access; replies release the requesting core's MSHR.
func (m *CMP) onDeliver(p *router.Packet) {
	switch p.Class {
	case router.ClassRequest:
		// The bank serves the access, then a reply is injected from the
		// bank's node back to the requesting core's node.
		reqCore := tagCore(p.Tag)
		reply := pendingReply{
			bankCore: p.Dst*m.coresPerNode + int(p.ID)%m.coresPerNode,
			dstNode:  reqCore / m.coresPerNode,
			tag:      txnTag(reqCore, true, tagSeq(p.Tag)),
		}
		m.bankPipe.Schedule(m.net.Now(), m.net.Now()+int64(m.params.BankLatency), reply)
	case router.ClassReply:
		reqCore := tagCore(p.Tag)
		if !tagReply(p.Tag) {
			panic("cpu: reply packet without reply tag")
		}
		st := &m.cores[reqCore]
		if st.outstanding <= 0 {
			panic(fmt.Sprintf("cpu: reply for core %d with no outstanding miss", reqCore))
		}
		st.outstanding--
		m.replies++
		m.roundTrips.add(float64(p.DeliveredAt - m.issuedAt[reqCore*seqs+int(tagSeq(p.Tag))]))
	}
}

// Step advances the CMP one cycle: banks emit due replies, then cores
// execute. Call immediately before net.Step().
func (m *CMP) Step() {
	now := m.net.Now()
	for _, r := range m.bankPipe.PopDue(now) {
		m.net.Inject(r.bankCore, r.dstNode, router.ClassReply, r.tag)
	}

	m.globalPhase.advance(m.params.MeanBurst, m.meanOff)
	for c := range m.cores {
		st := &m.cores[c]
		if st.outstanding >= m.params.MSHRs {
			m.stallCyc++
			continue // self-throttled: full miss window
		}
		missPerInstr := 0.0
		if m.params.Burstiness <= 1 {
			// Smooth execution: constant miss intensity.
			missPerInstr = m.params.MissPer1kInstr / 1000
		} else {
			inMemPhase := m.globalPhase.on
			if !st.synced {
				st.phase.advance(m.params.MeanBurst, m.meanOff)
				inMemPhase = st.phase.on
			}
			if inMemPhase {
				missPerInstr = m.params.Burstiness * m.params.MissPer1kInstr / 1000
			}
		}
		m.committed += int64(m.params.IssueWidth)
		st.missCredit += float64(m.params.IssueWidth) * missPerInstr
		for st.missCredit >= 1 && st.outstanding < m.params.MSHRs {
			st.missCredit--
			st.outstanding++
			m.misses++
			bank := st.rng.Intn(m.nodes * m.params.BanksPerNode)
			bankNode := bank / m.params.BanksPerNode
			seq := st.seq % seqs
			st.seq++
			m.issuedAt[c*seqs+int(seq)] = now
			m.net.Inject(c, bankNode, router.ClassRequest, txnTag(c, false, seq))
		}
	}
}

// Run advances the coupled CMP+network for the given cycles and returns
// the outcome.
func (m *CMP) Run(cycles int64) Outcome {
	for i := int64(0); i < cycles; i++ {
		m.Step()
		m.net.Step()
	}
	return m.Outcome(cycles)
}

// Outcome summarises a closed-loop run.
type Outcome struct {
	// IPC is committed instructions per cycle per core.
	IPC float64
	// StallFraction is the fraction of core-cycles lost to full MSHRs.
	StallFraction float64
	// Misses and Replies count memory transactions issued and completed.
	Misses  int64
	Replies int64
	// AvgMemLatency is the mean request-to-reply round trip in cycles —
	// the quantity the network's flow control actually moves.
	AvgMemLatency float64
	// NetResult carries the underlying network statistics.
	NetResult core.Result
}

// Outcome computes the result after cycles of execution.
func (m *CMP) Outcome(cycles int64) Outcome {
	cores := int64(len(m.cores))
	return Outcome{
		IPC:           float64(m.committed) / float64(cycles) / float64(cores),
		StallFraction: float64(m.stallCyc) / float64(cycles*cores),
		Misses:        m.misses,
		Replies:       m.replies,
		AvgMemLatency: m.roundTrips.mean,
		NetResult:     m.net.Result(),
	}
}

// AppMissIntensity maps the benchmark models of the trace package onto
// closed-loop miss intensities (misses per 1000 instructions): the trace
// mean rate corresponds to the miss flux of an un-stalled core at the
// model's issue width.
func AppMissIntensity(meanRate float64, issueWidth int) float64 {
	return meanRate * 1000 / float64(issueWidth)
}
