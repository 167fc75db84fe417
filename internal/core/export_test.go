package core

// Test-only exports for the core_test files.

// CanonicalFunc adapts a func to a Tracer that sees only the canonical
// (digest-folded) events; the tap-only attribution events are dropped.
type CanonicalFunc func(Event)

func (f CanonicalFunc) Observe(e Event) {
	if e.Type < firstTapOnly {
		f(e)
	}
}

// Wired reports whether the registry row names a wire function.
func (sp ProtocolSpec) Wired() bool { return sp.wire != nil }

// SetPoisonPackets flips poisonPackets and returns the previous setting.
func SetPoisonPackets(on bool) (was bool) {
	was, poisonPackets = poisonPackets, on
	return was
}

// EagerSteps makes n's Step visit every channel in every phase and run
// every arbiter every cycle, and its RunCycles step every idle cycle: the
// reference the sparse phases are checked against. Call it before the
// first Step.
func (n *Network) EagerSteps() {
	n.skipOK = false
	n.visitAll, n.ejectAll = n.every, n.every
}

// DisableSkipAhead turns off the idle fast path and deferred arbiters:
// RunCycles then steps every cycle and Step runs every arbiter, the
// reference side of the skip-ahead equivalence battery.
func (n *Network) DisableSkipAhead() { n.skipOK = false }

// LeakHolder takes a holder of packet id, which must be at the head of its
// output queue, that nothing will ever release — what a transition that
// forgot its release leaves behind.
func (n *Network) LeakHolder(id uint64) {
	for i := range n.queues {
		if p := n.queues[i].out.NextReady(); p != nil && p.ID == id {
			p.Hold()
			n.holders++
			return
		}
	}
	panic("core: LeakHolder: no queue head has that id")
}
