// Package arbiter implements optical channel arbitration for MWSR
// nanophotonic rings: the single relayed token of global arbitration
// (Token Channel, GHS) and the per-cycle token slots of distributed
// arbitration (Token Slot, DHS), plus the "well-served nodes sit on their
// hands" fairness policy both inherit from Fair Token Channel / Fair Slot.
//
// The arbiters are deliberately ignorant of packets and buffers: they only
// know node offsets and yes/no capture answers supplied through callbacks.
// Flow-control semantics (credits, handshakes, circulation) are composed on
// top by the network core.
package arbiter

// SweepFunc is the segment-granular capture interface: scan offsets
// [start, end) in downstream order and return the first offset that
// captures, or -1. Handing the arbiter one callback per token segment —
// instead of one callback per node position — lets the network
// core reject non-requesting nodes with a contiguous array scan, which is
// the difference between ~4096 closure calls per cycle and ~64 on an idle
// 64-node ring. A nil SweepFunc means no node can capture this cycle
// (the caller has proven the channel has no requesters); token motion,
// expiry and emission proceed as usual.
type SweepFunc func(start, end int) int

// GlobalToken is the single arbitration token of a globally arbitrated
// channel. It circulates at light speed — NodesPerCycle node positions per
// cycle — until a sender captures it; the holder parks the token while it
// transmits and releases it back onto the loop when done.
//
// The token itself carries no flow-control state: Token Channel's credit
// count, piggybacked on the token in hardware, is kept by
// flow.RelayedCredits, and GHS uses the same token without one — which is
// exactly the paper's point: arbitration without flow-control state.
type GlobalToken struct {
	nodes    int
	perCycle int

	pos    int // last offset swept (0 = home position)
	holder int // offset of current holder, -1 when the token is free

	// lost marks the token destroyed in the waveguide (fault injection):
	// it no longer circulates and can never be captured until the home
	// node's watchdog regenerates it. Physically the loop simply goes
	// silent — no light on the arbitration wavelength.
	lost bool

	captures   int64
	homePasses int64
}

// NewGlobalToken returns a free token parked at the home position of a loop
// with the given node count and per-cycle light speed.
func NewGlobalToken(nodes, perCycle int) *GlobalToken {
	return &GlobalToken{nodes: nodes, perCycle: perCycle, holder: -1}
}

// Held reports whether a sender currently holds the token, and at which
// offset.
func (t *GlobalToken) Held() (offset int, held bool) {
	return t.holder, t.holder >= 0
}

// Captures reports how many times the token has been captured.
func (t *GlobalToken) Captures() int64 { return t.captures }

// Lost reports whether the token is currently destroyed.
func (t *GlobalToken) Lost() bool { return t.lost }

// Invalidate destroys a free circulating token (fault injection). A held
// token cannot be invalidated — a holder's token is latched electrically
// at the capturing node, not travelling the waveguide — and attempting to
// is a caller bug.
func (t *GlobalToken) Invalidate() {
	if t.holder >= 0 {
		panic("arbiter: invalidating a held global token")
	}
	t.lost = true
}

// Regenerate re-emits a lost token from the home position. This is the
// home node's watchdog action after a bounded silence window; the
// duplicate-token guard makes a spurious firing safe: if the token is not
// actually lost (still circulating, or parked at a holder — the watchdog
// merely failed to observe it), Regenerate refuses and returns false, so
// two tokens can never coexist on the loop. Physically the guard is the
// home node's epoch filter: a re-emission is tagged with a flipped epoch
// bit and the original, had it survived, would be absorbed at home on its
// next pass.
func (t *GlobalToken) Regenerate() bool {
	if !t.lost {
		return false
	}
	t.lost = false
	t.pos = 0
	return true
}

// HomePasses reports how many times the token has swept past the home node.
func (t *GlobalToken) HomePasses() int64 { return t.homePasses }

// AdvanceSweep moves a free token one cycle down the loop, sweeping the
// next NodesPerCycle offsets in order. onHome fires when the sweep crosses
// the home position (offset 0) — Token Channel reimburses freed credits
// there. sweep is consulted for the non-home offsets; the first capturing
// offset parks the token there and ends the sweep. A held or lost token
// does not move.
//
// The cycle's sweep window covers offsets pos+1..pos+perCycle in downstream
// order; it wraps past the home position at most once, so sweep is invoked
// on at most two contiguous ranges with the home crossing between them.
func (t *GlobalToken) AdvanceSweep(sweep SweepFunc, onHome func()) {
	if t.holder >= 0 || t.lost {
		return
	}
	start, end := t.pos+1, t.pos+t.perCycle+1 // absolute, end exclusive
	if end <= t.nodes {
		if sweep != nil {
			if off := sweep(start, end); off >= 0 {
				t.park(off)
				return
			}
		}
	} else {
		if sweep != nil && start < t.nodes {
			if off := sweep(start, t.nodes); off >= 0 {
				t.park(off)
				return
			}
		}
		t.homePasses++
		if onHome != nil {
			onHome()
		}
		if rest := end - t.nodes; rest > 1 && sweep != nil {
			if off := sweep(1, rest); off >= 0 {
				t.park(off)
				return
			}
		}
	}
	t.pos = (t.pos + t.perCycle) % t.nodes
}

// Idle moves a free token k cycles down the loop when no node can capture
// it — what k calls of AdvanceSweep(nil, onHome) do — in O(1). onHome runs
// once if the token passed home at least once: Token Channel's
// reimbursement pays out everything freed since the last pass, so later
// passes with nothing freed in between pay nothing, and a caller whose
// onHome is not idempotent in that sense must not use Idle. A held or lost
// token does not move.
func (t *GlobalToken) Idle(k int64, onHome func()) {
	if t.holder >= 0 || t.lost || k <= 0 {
		return
	}
	// A cycle's sweep passes home iff pos+perCycle reaches nodes, so k
	// cycles pass it floor((pos + k*perCycle) / nodes) times.
	d := int64(t.pos) + k*int64(t.perCycle)
	passes := d / int64(t.nodes)
	t.pos = int(d % int64(t.nodes))
	if passes > 0 {
		t.homePasses += passes
		if onHome != nil {
			onHome()
		}
	}
}

// park latches the token at a capturing offset mid-sweep.
func (t *GlobalToken) park(off int) {
	t.holder = off
	t.pos = off
	t.captures++
}

// Release frees a held token; it resumes circulating from the holder's
// position on the next Advance. Release panics if the token is free —
// double releases are arbitration bugs.
func (t *GlobalToken) Release() {
	if t.holder < 0 {
		panic("arbiter: releasing a free global token")
	}
	t.pos = t.holder
	t.holder = -1
}
