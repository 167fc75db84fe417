package ptrace

// SetPoisonSpans flips poisonSpans for the package's external tests, which
// drive the span consumers in internal/exp.
func SetPoisonSpans(on bool) { poisonSpans = on }

// Err returns the first error the stream hit (malformed input or a
// callback failure); once set, further input is ignored. Close returns
// the same error; tests read it mid-stream.
func (s *Stream) Err() error {
	s.drain()
	return s.err
}
