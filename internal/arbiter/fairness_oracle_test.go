package arbiter

import (
	"fmt"
	"testing"

	"photon/internal/sim"
)

// stampFairness is the oracle for Fairness: the policy as first written,
// with three Nodes-long epoch-stamp arrays per channel. A node's capture
// count and its requester mark are live only while their stamp equals the
// current window's epoch, so nothing is ever cleared — stale entries are
// simply ignored. Fairness clears a bitset and a 16-bit count at each
// window boundary instead; the two must answer every call identically.
type stampFairness struct {
	enabled bool
	window  int64
	quota   int

	epoch       int64
	nextRoll    int64
	served      []int32
	servedEpoch []int64

	reqEpoch     []int64
	reqCount     int
	prevReqCount int

	yields int64
}

func newStampFairness(nodes int, cfg FairnessConfig) *stampFairness {
	f := &stampFairness{enabled: cfg.Enabled, window: cfg.Window, quota: cfg.Quota}
	if f.window <= 0 {
		f.window = 512
	}
	if f.quota <= 0 {
		f.quota = 16
	}
	f.nextRoll = f.window
	if f.enabled {
		f.served = make([]int32, nodes)
		f.servedEpoch = make([]int64, nodes)
		f.reqEpoch = make([]int64, nodes)
		for i := range f.servedEpoch {
			f.servedEpoch[i] = -1
			f.reqEpoch[i] = -1
		}
	}
	return f
}

func (f *stampFairness) BeginCycle(now int64) bool {
	if !f.enabled || now < f.nextRoll {
		return false
	}
	f.epoch = now / f.window
	f.nextRoll = (f.epoch + 1) * f.window
	f.prevReqCount = f.reqCount
	f.reqCount = 0
	return true
}

func (f *stampFairness) OnRequest(node int) {
	if f.enabled && f.reqEpoch[node] != f.epoch {
		f.reqEpoch[node] = f.epoch
		f.reqCount++
	}
}

func (f *stampFairness) Contenders() int {
	if f.reqCount > f.prevReqCount {
		return f.reqCount
	}
	return f.prevReqCount
}

func (f *stampFairness) Allow(node int) bool {
	if !f.enabled {
		return true
	}
	contenders := f.Contenders()
	if contenders <= 1 {
		return true
	}
	allowance := f.window / int64(contenders)
	if allowance < int64(f.quota) {
		allowance = int64(f.quota)
	}
	if f.servedEpoch[node] == f.epoch && int64(f.served[node]) >= allowance {
		f.yields++
		return false
	}
	return true
}

func (f *stampFairness) OnCapture(node int) {
	if !f.enabled {
		return
	}
	if f.servedEpoch[node] != f.epoch {
		f.servedEpoch[node] = f.epoch
		f.served[node] = 0
	}
	f.served[node]++
}

// oracleNodes are the node counts the oracle runs at: a minimal ring, one
// short of, exactly, and one past a bitset word, and the 256-node ring.
var oracleNodes = []int{2, 63, 64, 65, 256}

// driveFairness runs Fairness and the stamp oracle through the same random
// call sequence, the way a channel drives its policy: BeginCycle once per
// cycle, then requests, allowance checks and captures in any mix, with at
// most one capture per node per cycle (a node holds one grant or token at
// a time). The clock mostly ticks by one but sometimes jumps several
// windows at once. Every BeginCycle and Allow answer, Contenders() and
// Yields() must agree after every call.
func driveFairness(t *testing.T, nodes int, cfg FairnessConfig, rng *sim.RNG, cycles int) {
	t.Helper()
	got, want := NewFairness(nodes, cfg), newStampFairness(nodes, cfg)
	capturedAt := make([]int64, nodes)
	for i := range capturedAt {
		capturedAt[i] = -1
	}
	// A small pool of active nodes keeps contention and quota exhaustion
	// likely at every node count; the pool's ids span the whole ring.
	pool := make([]int, 1+rng.Intn(min(nodes, 12)))
	for i := range pool {
		pool[i] = rng.Intn(nodes)
	}
	now := int64(0)
	for cyc := 0; cyc < cycles; cyc++ {
		if rng.Intn(32) == 0 {
			now += int64(rng.Intn(4)) * want.window
		}
		now += 1 + int64(rng.Intn(3))
		if g, w := got.BeginCycle(now), want.BeginCycle(now); g != w {
			t.Fatalf("cycle %d: BeginCycle = %v, oracle %v", now, g, w)
		}
		for op, ops := 0, rng.Intn(2*len(pool)+1); op < ops; op++ {
			node := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				got.OnRequest(node)
				want.OnRequest(node)
			default:
				g, w := got.Allow(node), want.Allow(node)
				if g != w {
					t.Fatalf("cycle %d node %d: Allow = %v, oracle %v", now, node, g, w)
				}
				if g && capturedAt[node] != now {
					capturedAt[node] = now
					got.OnCapture(node)
					want.OnCapture(node)
				}
			}
			if g, w := got.Contenders(), want.Contenders(); g != w {
				t.Fatalf("cycle %d: Contenders = %d, oracle %d", now, g, w)
			}
			if g, w := got.Yields(), want.yields; g != w {
				t.Fatalf("cycle %d: Yields = %d, oracle %d", now, g, w)
			}
		}
	}
}

// oracleConfig maps raw draws to a policy configuration: short windows so
// many boundaries pass, quota floors from binding to never binding, and
// the zero values that select the defaults.
func oracleConfig(enabled bool, window, quota uint64) FairnessConfig {
	return FairnessConfig{Enabled: enabled, Window: int64(window % 48), Quota: int(quota % 10)}
}

func TestFairnessMatchesStampOracle(t *testing.T) {
	rng := sim.NewRNG(27)
	for _, nodes := range oracleNodes {
		for trial := 0; trial < 24; trial++ {
			cfg := oracleConfig(trial != 0, rng.Uint64(), rng.Uint64())
			t.Run(fmt.Sprintf("n%d/w%d/q%d/%d", nodes, cfg.Window, cfg.Quota, trial), func(t *testing.T) {
				driveFairness(t, nodes, cfg, sim.NewRNG(rng.Uint64()), 600)
			})
		}
	}
	// The evaluation's own configuration, long enough to cross windows.
	for _, nodes := range oracleNodes {
		driveFairness(t, nodes, DefaultFairness(), sim.NewRNG(uint64(nodes)), 3000)
	}
}

func FuzzFairnessOracle(f *testing.F) {
	f.Add(uint64(1), uint8(0), true, uint64(10), uint64(2))
	f.Add(uint64(2), uint8(3), true, uint64(0), uint64(0))
	f.Add(uint64(3), uint8(4), true, uint64(7), uint64(1))
	f.Add(uint64(4), uint8(1), false, uint64(5), uint64(3))
	f.Fuzz(func(t *testing.T, seed uint64, nodesIdx uint8, enabled bool, window, quota uint64) {
		nodes := oracleNodes[int(nodesIdx)%len(oracleNodes)]
		driveFairness(t, nodes, oracleConfig(enabled, window, quota), sim.NewRNG(seed), 300)
	})
}
