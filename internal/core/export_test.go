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
