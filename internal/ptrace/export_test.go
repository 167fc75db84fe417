package ptrace

// SetPoisonSpans flips poisonSpans for the package's external tests, which
// drive the span consumers in internal/exp.
func SetPoisonSpans(on bool) { poisonSpans = on }
