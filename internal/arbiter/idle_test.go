package arbiter

import (
	"reflect"
	"slices"
	"testing"

	"photon/internal/flow"
	"photon/internal/sim"
)

// The catch-up oracles: an arbiter deferred for k cycles and then caught
// up with Idle must be in exactly the state k eager cycles leave — every
// field, and the credit ledger its callbacks drive — for k and the prior
// state drawn at random, across fairness-window edges, token loops and
// Token Slot / Token Channel credit counts.

// idleSpan draws a deferral length: mostly within a few loops or windows
// of the edge cases, sometimes far past them.
func idleSpan(rng *sim.RNG, scale int) int64 {
	if rng.Intn(8) == 0 {
		return int64(rng.Intn(50 * scale))
	}
	return int64(rng.Intn(3*scale + 2))
}

func TestFairnessIdleMatchesBeginCycle(t *testing.T) {
	rng := sim.NewRNG(44)
	for trial := 0; trial < 400; trial++ {
		nodes := oracleNodes[rng.Intn(len(oracleNodes))]
		f := NewFairness(nodes, oracleConfig(trial%8 != 0, rng.Uint64(), rng.Uint64()))
		// A busy history: requests, allowance checks and captures (at most
		// one per node per cycle), over a few windows.
		now := int64(0)
		for c := rng.Intn(4 * int(f.window)); c > 0; c-- {
			now++
			f.BeginCycle(now)
			captured := map[int]bool{}
			for op := rng.Intn(5); op > 0; op-- {
				node := rng.Intn(nodes)
				if rng.Intn(2) == 0 {
					f.OnRequest(node)
				} else if f.Allow(node) && !captured[node] {
					captured[node] = true
					f.OnCapture(node)
				}
			}
		}
		k := idleSpan(rng, int(f.window))
		eager := *f
		eager.served, eager.seen = slices.Clone(f.served), slices.Clone(f.seen)
		for c := now + 1; c <= now+k; c++ {
			eager.BeginCycle(c)
		}
		f.Idle(now + k)
		if !reflect.DeepEqual(*f, eager) {
			t.Fatalf("trial %d: %d idle cycles from cycle %d (window %d):\n  Idle:       %+v\n  BeginCycle: %+v",
				trial, k, now, f.window, *f, eager)
		}
		if f.NextRoll() != eager.NextRoll() {
			t.Fatalf("trial %d: NextRoll %d, eager %d", trial, f.NextRoll(), eager.NextRoll())
		}
	}
}

// loopGeometry draws a ring: R in {1,2,4,8,16}, nodes a multiple of R.
func loopGeometry(rng *sim.RNG) (nodes, roundTrip, perCycle int) {
	roundTrip = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
	nodes = roundTrip * (1 + rng.Intn(16))
	return nodes, roundTrip, nodes / roundTrip
}

func TestGlobalTokenIdleMatchesAdvance(t *testing.T) {
	rng := sim.NewRNG(45)
	for trial := 0; trial < 400; trial++ {
		nodes, roundTrip, per := loopGeometry(rng)
		tok := NewGlobalToken(nodes, per)
		rc := flow.NewRelayedCredits(1 + rng.Intn(6))
		// A busy history: captures when credits ride the token, one send
		// per hold, arrivals and ejections at home.
		for c := rng.Intn(6 * roundTrip); c > 0; c-- {
			if _, held := tok.Held(); held {
				rc.Spend()
				tok.Release()
			} else {
				capture := rng.Intn(3) == 0 && rc.OnToken() > 0
				tok.AdvanceSweep(func(start, end int) int {
					if capture {
						return start
					}
					return -1
				}, rc.PassHome)
			}
			if rng.Intn(2) == 0 {
				_ = rc.Arrive() // refused, unchanged, with nothing in flight
			}
			if rng.Intn(2) == 0 {
				_ = rc.Eject() // refused, unchanged, with nothing buffered
			}
		}
		if _, held := tok.Held(); held {
			tok.Release() // a deferred channel's token is free
		}
		k := idleSpan(rng, roundTrip)
		eagerTok, eagerRC := *tok, *rc
		for i := int64(0); i < k; i++ {
			eagerTok.AdvanceSweep(nil, eagerRC.PassHome)
		}
		tok.Idle(k, rc.PassHome)
		if *tok != eagerTok || *rc != eagerRC {
			t.Fatalf("trial %d: %d idle cycles on %d nodes, R %d:\n  Idle:    %+v %+v\n  Advance: %+v %+v",
				trial, k, nodes, roundTrip, *tok, *rc, eagerTok, eagerRC)
		}
	}
}

func TestSlotEmitterIdleMatchesPerCycle(t *testing.T) {
	rng := sim.NewRNG(46)
	for trial := 0; trial < 400; trial++ {
		_, roundTrip, _ := loopGeometry(rng)
		s := NewSlotEmitter(roundTrip)
		// Token Slot's credit gate, or DHS's open one.
		credits := trial%2 == 0
		sc := flow.NewSlotCredits(1 + rng.Intn(2*roundTrip+2))
		hooks := func(sc *flow.SlotCredits) (expire func(), gate func() bool) {
			if !credits {
				return nil, nil
			}
			return sc.Expire, func() bool {
				if !sc.CanEmit() {
					return false
				}
				sc.Emit()
				return true
			}
		}
		expire, gate := hooks(sc)
		// A busy history: captures at random ages, the captured credits
		// landing and leaving the home buffer at random.
		now := int64(-1)
		for c := rng.Intn(4 * (roundTrip + 1)); c > 0; c-- {
			now++
			s.BeginCycle(now, expire)
			for age := 1; age <= roundTrip; age++ {
				if s.LiveAt(now, age) && rng.Intn(4) == 0 {
					s.Consume(now, age)
					if credits {
						sc.Capture()
					}
				}
			}
			s.Emit(now, gate)
			if credits && rng.Intn(2) == 0 {
				_ = sc.Arrive()
			}
			if credits && rng.Intn(2) == 0 {
				_ = sc.Eject()
			}
		}
		k := idleSpan(rng, roundTrip+1)
		eager, eagerSC := *s, *sc
		eager.live = slices.Clone(s.live)
		eagerExpire, eagerGate := hooks(&eagerSC)
		for c := now + 1; c <= now+k; c++ {
			eager.BeginCycle(c, eagerExpire)
			eager.Emit(c, eagerGate)
		}
		s.Idle(now+1, now+k, expire, gate)
		if !reflect.DeepEqual(*s, eager) || *sc != eagerSC {
			t.Fatalf("trial %d: %d idle cycles from cycle %d, R %d, credits %v:\n  Idle:     %+v %+v\n  per-cycle: %+v %+v",
				trial, k, now+1, roundTrip, credits, *s, *sc, eager, eagerSC)
		}
	}
}
