package arbiter

import "fmt"

// SlotEmitter implements distributed arbitration: the home node emits a
// fresh token every cycle (subject to an emission gate), and each live
// token sweeps one loop segment per cycle until it is captured or completes
// the loop and expires.
//
// Because a token of age a sweeps exactly the offsets of segment a, and
// tokens are at distinct ages, each node sees at most one token of a given
// channel per cycle; and because a packet grabbed from the token emitted at
// cycle t always lands at the home at cycle t+R+1, the data channel is
// collision-free by construction. Token Slot gates emission on credits; DHS
// emits unconditionally; DHS-with-circulation suppresses emission on cycles
// where the home reinjects a packet.
//
// One cycle of token motion is three steps, once per cycle with strictly
// increasing now: BeginCycle expires the token that completed the loop;
// the caller asks LiveAt for the token of each age it wants to test and
// Consumes the ones it captures (the token of age a covers offsets
// [(a-1)*perCycle+1, a*perCycle]); Emit closes the cycle with a new token
// iff the emission gate allows. The engine drives the capture step from
// its requester set (core's slotScan), so a cycle with no requesters costs
// O(1).
type SlotEmitter struct {
	// live[emitCycle % len(live)] is true when the token emitted that
	// cycle is still travelling.
	live []bool
	// emitBase tracks which absolute cycles the live window covers.
	lastEmitCheck int64
	// curIdx is now % len(live) for the cycle opened by BeginCycle — the
	// shared ring position of this cycle's emission and expiry (len(live)
	// is exactly roundTrip+1, so the expiring token sits where the new one
	// goes). Caching it makes LiveAt/Consume/Emit division-free.
	curIdx int

	emitted  int64
	captured int64
	expired  int64
}

// NewSlotEmitter builds the token-slot machinery for one channel of a loop
// whose tokens take roundTrip cycles to come home.
func NewSlotEmitter(roundTrip int) *SlotEmitter {
	return &SlotEmitter{live: make([]bool, roundTrip+1)}
}

// Stats reports cumulative (emitted, captured, expired) token counts.
func (s *SlotEmitter) Stats() (emitted, captured, expired int64) {
	return s.emitted, s.captured, s.expired
}

// BeginCycle opens cycle now: it enforces the once-per-cycle contract and
// expires the token that has completed the loop (age R+1 this cycle),
// invoking onExpire so Token Slot can reclaim the unused credit. Must be
// called before any LiveAt/Consume/Emit for the cycle.
//
// The expiring token was emitted exactly len(live) = roundTrip+1 cycles
// ago, so it occupies the same ring position the new token will take —
// before cycle roundTrip+1 that position cannot be live (its emit cycle
// would predate the simulation), so no early-cycle guard is needed.
func (s *SlotEmitter) BeginCycle(now int64, onExpire func()) {
	if now <= s.lastEmitCheck && s.emitted+s.expired+s.captured > 0 {
		panic(fmt.Sprintf("arbiter: SlotEmitter.BeginCycle called twice for cycle %d", now))
	}
	prev := s.lastEmitCheck
	s.lastEmitCheck = now

	if now == prev+1 {
		// Consecutive cycles advance the ring position by one — no
		// division on the hot path.
		if s.curIdx++; s.curIdx == len(s.live) {
			s.curIdx = 0
		}
	} else {
		s.curIdx = int(now % int64(len(s.live)))
	}
	if s.live[s.curIdx] {
		s.live[s.curIdx] = false
		s.expired++
		if onExpire != nil {
			onExpire()
		}
	}
}

// LiveAt reports whether the token of the given age (1..roundTrip) is
// still travelling at cycle now, which must be the cycle opened by
// BeginCycle. Ages older than the simulation start report false.
func (s *SlotEmitter) LiveAt(now int64, age int) bool {
	if int64(age) > now {
		return false
	}
	i := s.curIdx - age
	if i < 0 {
		i += len(s.live)
	}
	return s.live[i]
}

// Consume marks the live token of the given age captured at cycle now
// (the cycle opened by BeginCycle).
func (s *SlotEmitter) Consume(now int64, age int) {
	i := s.curIdx - age
	if i < 0 {
		i += len(s.live)
	}
	s.live[i] = false
	s.captured++
}

// Emit closes cycle now (the cycle opened by BeginCycle) by emitting this
// cycle's token iff emitGate allows (nil = always).
func (s *SlotEmitter) Emit(now int64, emitGate func() bool) {
	if emitGate == nil || emitGate() {
		if s.live[s.curIdx] {
			panic(fmt.Sprintf("arbiter: token slot emitted at cycle %d collides with live token", now))
		}
		s.live[s.curIdx] = true
		s.emitted++
	}
}

// Idle runs cycles from..to (the next cycle not yet opened, through to)
// with no capture, exactly as BeginCycle and Emit at each of them would,
// in O(roundTrip) however long the span. Only the first loop (roundTrip+1
// cycles) is run; after it every ring position has been visited once with
// no capture, so a live token expires and re-emits at each later visit and
// a dead position stays dead — for a gate that is stationary in that
// sense, and the rest of the span is counting. Token Slot's credit gate
// is: an expiring token's credit comes home just before the gate asks, so
// a live position always re-emits, and once the gate has refused a
// position the home holds no free credit and gets none back beyond what
// the next emission takes. An always-open gate trivially is. A gate with
// other inputs (fault draws, circulation's suppression) must not be
// idled.
func (s *SlotEmitter) Idle(from, to int64, onExpire func(), gate func() bool) {
	if from > to {
		return
	}
	loop := int64(len(s.live))
	now, idx := from, int(from%loop)
	for ; now <= to && now < from+loop; now++ {
		// BeginCycle's expiry, then Emit: the position was just freed, so
		// it cannot collide.
		if s.live[idx] {
			s.live[idx] = false
			s.expired++
			if onExpire != nil {
				onExpire()
			}
		}
		if gate == nil || gate() {
			s.live[idx] = true
			s.emitted++
		}
		if idx++; idx == len(s.live) {
			idx = 0
		}
	}
	s.lastEmitCheck = now - 1
	s.curIdx = int(s.lastEmitCheck % loop)
	if now > to {
		return
	}
	live := int64(0)
	for _, l := range s.live {
		if l {
			live++
		}
	}
	rest := to - now + 1
	visits := rest / loop * live
	for c := to - rest%loop + 1; c <= to; c++ {
		if s.live[c%loop] {
			visits++
		}
	}
	s.emitted += visits
	s.expired += visits
	s.lastEmitCheck = to
	s.curIdx = int(to % loop)
}
