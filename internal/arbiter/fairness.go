package arbiter

import (
	"errors"
	"math"
)

// Fairness implements the "well served nodes sit on their hands for a
// while" policy of Fair Token Channel / Fair Slot (Vantrease et al.,
// MICRO'09), which the paper adopts for its handshake schemes (§III-D):
// nodes close to the home node see tokens first and, once setaside buffers
// or circulation remove the natural throttling of HOL blocking, would
// starve far-downstream senders.
//
// The policy is a per-(channel, node) service quota: within a window of W
// cycles a node may capture at most max(Q, W/requesters) tokens of a given
// channel, where requesters is the channel's live count of distinct
// requesting nodes. The quota binds only while the channel is contended
// (requesters > 1): an uncontended sender keeps the full channel
// bandwidth, so single-writer patterns like Bit Complement pay nothing; a
// lightly shared channel (few requesters) allows each sharer close to the
// full rate; and under a hot-spot pile-up of dozens of senders every
// upstream node is capped at its egalitarian share W/requesters, so tokens
// survive all the way to the farthest segment — no starvation.
type Fairness struct {
	enabled bool
	window  int64
	quota   int

	nextRoll int64    // first cycle of the next window
	served   []uint16 // captures this window: at most one per cycle, so <= Window
	dirty    bool     // served holds a capture of this window

	// Distinct requesters per window: seen marks a node's first request of
	// the current window; prevReqCount carries the previous window's
	// verdict so allowances are sane right after a boundary.
	seen         []uint64
	reqCount     int
	prevReqCount int

	yields int64
}

// FairnessConfig parameterises the policy.
type FairnessConfig struct {
	// Enabled switches the policy on. The paper enables it for every
	// handshake scheme; basic GHS/DHS are "partially fair" through HOL
	// blocking alone, so disabling it there is faithful too.
	Enabled bool
	// Window is the quota window in cycles (0 = default 512).
	Window int64
	// Quota is the *floor* of the per-window capture allowance under
	// contention; the effective allowance is max(Quota, Window/requesters)
	// (0 = default 16).
	Quota int
}

// MaxFairnessWindow is the longest quota window: capture counts are 16-bit.
const MaxFairnessWindow = 1<<16 - 1

// The errors FairnessConfig.Validate returns.
var (
	ErrFairnessWindow = errors.New("arbiter: fairness window must be in [0, 65535]")
	ErrFairnessQuota  = errors.New("arbiter: fairness quota must be >= 0")
)

// Validate rejects a window or quota the policy cannot honour.
func (c FairnessConfig) Validate() error {
	if c.Window < 0 || c.Window > MaxFairnessWindow {
		return ErrFairnessWindow
	}
	if c.Quota < 0 {
		return ErrFairnessQuota
	}
	return nil
}

// DefaultFairness returns the configuration used in the evaluation. The
// floor of 16 captures per 512-cycle window (3.1% of a channel) sits above
// any single node's fair demand at uniform-traffic saturation — so the
// policy costs the synthetic sweeps nothing — while still starving-proof:
// a node hammering a hot channel beyond 3.1% yields to everyone behind it.
func DefaultFairness() FairnessConfig {
	return FairnessConfig{Enabled: true, Window: 512, Quota: 16}
}

// NewFairness builds the per-node policy state for one channel.
func NewFairness(nodes int, cfg FairnessConfig) *Fairness {
	f := &Fairness{
		enabled: cfg.Enabled,
		window:  cfg.Window,
		quota:   cfg.Quota,
	}
	if f.window <= 0 {
		f.window = 512
	}
	if f.quota <= 0 {
		f.quota = 16
	}
	f.nextRoll = f.window
	if f.enabled {
		f.served = make([]uint16, nodes)
		f.seen = make([]uint64, (nodes+63)/64)
	}
	return f
}

// BeginCycle advances the policy's clock; the owning channel calls it once
// per cycle before any Allow/OnCapture. It returns true when a new window
// has just started — the caller then re-registers still-backlogged
// requesters via OnRequest so sustained contention is counted across
// window boundaries.
func (f *Fairness) BeginCycle(now int64) bool {
	if f == nil || !f.enabled {
		return false
	}
	if now < f.nextRoll {
		// Inside the current window: the common case pays one compare,
		// not a division.
		return false
	}
	f.nextRoll = (now/f.window + 1) * f.window
	f.prevReqCount = f.reqCount
	f.reqCount = 0
	clear(f.seen)
	if f.dirty {
		clear(f.served)
		f.dirty = false
	}
	return true
}

// NextRoll returns the first cycle of the next window: BeginCycle does
// nothing before it. A disabled policy never rolls (math.MaxInt64). The
// engine keeps a copy beside each channel's other per-cycle state, so the
// in-window test of a cycle does not reach into the policy at all.
func (f *Fairness) NextRoll() int64 {
	if f == nil || !f.enabled {
		return math.MaxInt64
	}
	return f.nextRoll
}

// Idle advances the clock to cycle to exactly as a BeginCycle call at
// every cycle up to it would, given that no requester is registered, no
// allowance asked and no capture made in between — a channel nobody
// wants. It costs O(1) however many windows pass: a window that passed
// wholly idle registered no requester, so it leaves the previous-window
// verdict at zero.
func (f *Fairness) Idle(to int64) {
	if f == nil || !f.enabled || to < f.nextRoll {
		return
	}
	if to >= f.nextRoll+f.window {
		f.reqCount = 0
	}
	f.BeginCycle(to)
}

// OnRequest notes that a node wants this channel; the first note per
// window counts it as a distinct contender.
func (f *Fairness) OnRequest(node int) {
	if f == nil || !f.enabled {
		return
	}
	w, bit := &f.seen[node>>6], uint64(1)<<uint(node&63)
	if *w&bit == 0 {
		*w |= bit
		f.reqCount++
	}
}

// Contenders reports the distinct-requester estimate the allowance uses.
func (f *Fairness) Contenders() int {
	if f == nil {
		return 0
	}
	return max(f.reqCount, f.prevReqCount)
}

// Allow is consulted when a requesting node would capture a token. It
// returns false — counting a yield — when the node has exhausted its
// effective allowance, max(Quota, Window/contenders), on a channel with
// more than one distinct requester this window.
func (f *Fairness) Allow(node int) bool {
	if f == nil || !f.enabled {
		return true
	}
	contenders := f.Contenders()
	if contenders <= 1 {
		return true
	}
	if int64(f.served[node]) >= max(f.window/int64(contenders), int64(f.quota)) {
		f.yields++
		return false
	}
	return true
}

// OnCapture records a successful capture against the node's quota.
func (f *Fairness) OnCapture(node int) {
	if f == nil || !f.enabled {
		return
	}
	f.served[node]++
	f.dirty = true
}

// Yields reports how many capture opportunities were declined by policy.
func (f *Fairness) Yields() int64 { return f.yields }
