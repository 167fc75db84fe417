package arbiter

import (
	"testing"
)

// The tests state capture rules one offset at a time; perOffset adapts
// such a rule to the segment-granular SweepFunc the arbiters take.
func perOffset(capture func(off int) bool) SweepFunc {
	return func(start, end int) int {
		for off := start; off < end; off++ {
			if capture(off) {
				return off
			}
		}
		return -1
	}
}

func (t *GlobalToken) Advance(capture func(off int) bool, onHome func()) {
	t.AdvanceSweep(perOffset(capture), onHome)
}

// Advance drives the paper's loop, the one every SlotEmitter test builds:
// 64 nodes, R = 8, so 8 nodes per cycle.
func (s *SlotEmitter) Advance(now int64, emitGate func() bool, capture func(off int) bool, onExpire func()) {
	s.AdvanceSweep(now, 64, 8, emitGate, perOffset(capture), onExpire)
}

// AdvanceSweep is the composed form of one cycle of token motion, the
// oracle the BeginCycle / LiveAt / Consume / Emit primitives are tested
// against: expire the token that completed the loop, let every live token
// of age 1..R ask sweep for its whole segment (a capturing offset consumes
// the token; a nil sweep skips the scan), then emit iff emitGate allows.
// The engine makes exactly the same stateful calls in the same order, but
// drives the capture scan from its requester set instead of iterating
// every live token. The loop has nodes nodes, perCycle per segment.
func (s *SlotEmitter) AdvanceSweep(now int64, nodes, perCycle int, emitGate func() bool, sweep SweepFunc, onExpire func()) {
	s.BeginCycle(now, onExpire)
	if sweep != nil {
		for age := 1; age < len(s.live); age++ {
			if now-int64(age) < 0 {
				break
			}
			if !s.LiveAt(now, age) {
				continue
			}
			start := (age-1)*perCycle + 1
			end := start + perCycle
			if end > nodes {
				end = nodes
			}
			if start >= end {
				continue
			}
			if off := sweep(start, end); off >= 0 {
				s.Consume(now, age)
			}
		}
	}
	s.Emit(now, emitGate)
}

// Live counts the tokens currently travelling.
func (s *SlotEmitter) Live() int {
	n := 0
	for _, l := range s.live {
		if l {
			n++
		}
	}
	return n
}

// collectSweep records the offsets a token polls.
func collectSweep(t *GlobalToken, rounds int) []int {
	var seen []int
	for i := 0; i < rounds; i++ {
		t.Advance(func(off int) bool {
			seen = append(seen, off)
			return false
		}, nil)
	}
	return seen
}

func TestGlobalTokenSweepOrder(t *testing.T) {
	tok := NewGlobalToken(64, 8)
	seen := collectSweep(tok, 8)
	// One full loop: offsets 1..63 plus the home position skipped (home
	// fires onHome, not capture), in downstream order.
	want := 0
	for _, off := range seen {
		want++
		if want == 64 {
			want = 0 // home position is skipped by capture, so not seen
			want++
		}
		if off != want {
			t.Fatalf("sweep out of order: got %d, want %d", off, want)
		}
	}
	if len(seen) != 63 {
		t.Fatalf("one loop polled %d offsets, want 63", len(seen))
	}
}

func TestGlobalTokenHomePass(t *testing.T) {
	tok := NewGlobalToken(64, 8)
	passes := 0
	for i := 0; i < 16; i++ { // two loops
		tok.Advance(func(int) bool { return false }, func() { passes++ })
	}
	if passes != 2 {
		t.Fatalf("home passes = %d over two loops, want 2", passes)
	}
	if tok.HomePasses() != 2 {
		t.Fatalf("HomePasses = %d", tok.HomePasses())
	}
}

func TestGlobalTokenCaptureParks(t *testing.T) {
	tok := NewGlobalToken(64, 8)
	captured := tok.Advance // silence linters
	_ = captured
	tok.Advance(func(off int) bool { return off == 5 }, nil)
	off, held := tok.Held()
	if !held || off != 5 {
		t.Fatalf("Held = %d,%v, want 5,true", off, held)
	}
	// A held token must not move.
	tok.Advance(func(int) bool {
		t.Fatal("held token polled a node")
		return false
	}, nil)
	// Release resumes from the holder's position.
	tok.Release()
	var next []int
	tok.Advance(func(off int) bool { next = append(next, off); return false }, nil)
	if len(next) == 0 || next[0] != 6 {
		t.Fatalf("after release sweep starts at %v, want 6", next)
	}
	if tok.Captures() != 1 {
		t.Fatalf("Captures = %d", tok.Captures())
	}
}

func TestGlobalTokenDoubleReleasePanics(t *testing.T) {
	tok := NewGlobalToken(64, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a free token did not panic")
		}
	}()
	tok.Release()
}

func TestGlobalTokenCaptureStopsSweep(t *testing.T) {
	tok := NewGlobalToken(64, 8)
	var polled []int
	tok.Advance(func(off int) bool {
		polled = append(polled, off)
		return off == 3
	}, nil)
	if len(polled) != 3 {
		t.Fatalf("sweep after capture continued: polled %v", polled)
	}
}

func TestSlotEmitterTimeline(t *testing.T) {
	s := NewSlotEmitter(8)
	// The token emitted at cycle 0 must poll offset 12 (segment 2) at
	// cycle 2.
	polledAt := map[int64][]int{}
	for now := int64(0); now < 4; now++ {
		gate := func() bool { return now == 0 } // single token
		s.Advance(now, gate, func(off int) bool {
			polledAt[now] = append(polledAt[now], off)
			return false
		}, nil)
	}
	if got := polledAt[1]; len(got) != 8 || got[0] != 1 || got[7] != 8 {
		t.Fatalf("age-1 sweep = %v, want 1..8", got)
	}
	if got := polledAt[2]; len(got) != 8 || got[0] != 9 {
		t.Fatalf("age-2 sweep = %v, want 9..16", got)
	}
}

func TestSlotEmitterExpiry(t *testing.T) {
	s := NewSlotEmitter(8)
	expired := 0
	for now := int64(0); now < 20; now++ {
		gate := func() bool { return now == 0 }
		s.Advance(now, gate, func(int) bool { return false }, func() { expired++ })
		if expired > 0 && now < 9 {
			t.Fatalf("token expired at cycle %d, want 9", now)
		}
	}
	if expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}
	em, cap0, ex := s.Stats()
	if em != 1 || cap0 != 0 || ex != 1 {
		t.Fatalf("Stats = %d,%d,%d", em, cap0, ex)
	}
}

func TestSlotEmitterCaptureConsumes(t *testing.T) {
	s := NewSlotEmitter(8)
	captures := 0
	for now := int64(0); now < 20; now++ {
		gate := func() bool { return now == 0 }
		s.Advance(now, gate, func(off int) bool {
			if off == 12 { // segment 2, polled at cycle 2
				captures++
				return true
			}
			return false
		}, nil)
	}
	if captures != 1 {
		t.Fatalf("captures = %d", captures)
	}
	if s.Live() != 0 {
		t.Fatalf("captured token still live")
	}
	_, capN, exN := s.Stats()
	if capN != 1 || exN != 0 {
		t.Fatalf("captured %d expired %d", capN, exN)
	}
}

func TestSlotEmitterContinuousEmission(t *testing.T) {
	s := NewSlotEmitter(8)
	for now := int64(0); now < 100; now++ {
		s.Advance(now, nil, func(int) bool { return false }, nil)
		if s.Live() > 9 {
			t.Fatalf("cycle %d: %d live tokens (max R+1: R travelling plus this cycle's emission)", now, s.Live())
		}
	}
	em, _, ex := s.Stats()
	if em != 100 {
		t.Fatalf("emitted %d in 100 cycles", em)
	}
	// Tokens live for R+1 cycles (emission through the return sweep), so
	// the last 9 emissions are still travelling at the end.
	if ex != 100-9 {
		t.Fatalf("expired %d, want %d", ex, 100-9)
	}
}

func TestSlotEmitterGateBlocksEmission(t *testing.T) {
	s := NewSlotEmitter(8)
	for now := int64(0); now < 50; now++ {
		s.Advance(now, func() bool { return false }, func(int) bool { return false }, nil)
	}
	em, _, _ := s.Stats()
	if em != 0 {
		t.Fatalf("gated emitter emitted %d tokens", em)
	}
}

// TestSlotEmitterDoubleBeginCyclePanics: opening one cycle twice is a caller
// bug, and the panic names the method the caller actually called.
func TestSlotEmitterDoubleBeginCyclePanics(t *testing.T) {
	s := NewSlotEmitter(8)
	for now := int64(0); now < 3; now++ {
		s.Advance(now, func() bool { return true }, func(int) bool { return false }, nil)
	}
	defer func() {
		const want = "arbiter: SlotEmitter.BeginCycle called twice for cycle 2"
		if got := recover(); got != want {
			t.Fatalf("second BeginCycle(2) panicked with %v, want %q", got, want)
		}
	}()
	s.BeginCycle(2, nil)
}

func TestFairnessQuota(t *testing.T) {
	f := NewFairness(64, FairnessConfig{Enabled: true, Window: 100, Quota: 2})
	f.BeginCycle(0)
	node := 1
	// Single requester: quota never binds.
	f.OnRequest(node)
	for i := 0; i < 10; i++ {
		if !f.Allow(node) {
			t.Fatalf("uncontended capture %d disallowed", i)
		}
		f.OnCapture(node)
	}
	// Contended in a fresh window with 50 contenders: the egalitarian
	// share 100/50 equals the floor of 2 — two captures, then yields.
	f.BeginCycle(100)
	for n := 0; n < 50; n++ {
		f.OnRequest(n)
	}
	for i := 0; i < 2; i++ {
		if !f.Allow(node) {
			t.Fatalf("capture %d within quota disallowed", i)
		}
		f.OnCapture(node)
	}
	if f.Allow(node) {
		t.Fatal("capture beyond quota allowed under contention")
	}
	// Other nodes keep their own quotas.
	if !f.Allow(2) {
		t.Fatal("unserved node blocked")
	}
	// The next window resets the quota; contention carries over via the
	// previous window's count.
	f.BeginCycle(200)
	if f.Contenders() != 50 {
		t.Fatalf("Contenders = %d after boundary, want carried 50", f.Contenders())
	}
	if !f.Allow(node) {
		t.Fatal("quota did not reset at the window boundary")
	}
	if f.Yields() != 1 {
		t.Fatalf("Yields = %d", f.Yields())
	}
}

func TestFairnessEgalitarianAllowance(t *testing.T) {
	// With few contenders the allowance is Window/contenders, far above
	// the floor: two sharers of a 100-cycle window get 50 each.
	f := NewFairness(8, FairnessConfig{Enabled: true, Window: 100, Quota: 2})
	f.BeginCycle(0)
	f.OnRequest(0)
	f.OnRequest(1)
	for i := 0; i < 50; i++ {
		if !f.Allow(0) {
			t.Fatalf("capture %d under-allowed with 2 contenders", i)
		}
		f.OnCapture(0)
	}
	if f.Allow(0) {
		t.Fatal("51st capture of a 100-cycle window allowed to one of two sharers")
	}
}

func TestFairnessQuotaLazyReset(t *testing.T) {
	f := NewFairness(2, FairnessConfig{Enabled: true, Window: 10, Quota: 1})
	f.BeginCycle(0)
	f.OnRequest(0)
	f.OnRequest(1)
	// Exhaust node 0's floor allowance (window/contenders = 5).
	for i := 0; i < 5; i++ {
		f.OnCapture(0)
	}
	if f.Allow(0) {
		t.Fatal("allowance exceeded")
	}
	// Skip several windows without captures; the stale count must not
	// carry over (contention does carry one window, then decays).
	f.BeginCycle(50)
	f.OnRequest(0)
	f.OnRequest(1)
	if !f.Allow(0) {
		t.Fatal("stale served count survived window skip")
	}
}

func TestFairnessDisabled(t *testing.T) {
	f := NewFairness(4, FairnessConfig{Enabled: false})
	f.BeginCycle(0)
	for i := 0; i < 100; i++ {
		if !f.Allow(2) {
			t.Fatal("disabled policy yielded")
		}
		f.OnCapture(2)
	}
	var nilF *Fairness
	nilF.BeginCycle(0)
	nilF.OnRequest(0)
	if !nilF.Allow(0) {
		t.Fatal("nil policy must allow")
	}
	nilF.OnCapture(0) // must not panic
	if got := nilF.Contenders(); got != 0 {
		t.Fatalf("nil policy Contenders = %d, want 0", got)
	}
}

func TestFairnessDefaultsApplied(t *testing.T) {
	f := NewFairness(2, FairnessConfig{Enabled: true})
	if f.window != 512 || f.quota != 16 {
		t.Fatalf("defaults not applied: %d/%d", f.window, f.quota)
	}
}
