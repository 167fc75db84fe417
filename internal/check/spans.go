package check

import (
	"fmt"
	"strings"

	"photon/internal/core"
	"photon/internal/ptrace"
)

// SpanFold sums a run's spans for AuditSpans. Add is a Stream's OnSpan;
// close the stream before the audit, so the spans it still holds
// (undelivered, rejected) are folded too.
type SpanFold struct {
	spans, delivered, local, neverEnqueued     int64
	launches, drops, circulations, retransmits int64
	invalid                                    []string
}

// Add folds one span, keeping a broken chain or a Faulted mark for
// AuditSpans to report: it never fails, so the stream runs to the end.
func (f *SpanFold) Add(s *ptrace.PacketSpan) error {
	if err := s.Validate(); err != nil {
		f.invalid = append(f.invalid, fmt.Sprintf("span invariant: %v", err))
	}
	if s.Faulted {
		f.invalid = append(f.invalid, fmt.Sprintf("packet %d marked faulted on a fault-free run", s.ID))
	}
	f.spans++
	if s.Delivered >= 0 {
		f.delivered++
		if s.Local {
			f.local++
		}
	} else if len(s.Phases) == 0 {
		// Injected but never enqueued: rejected by a bounded queue or
		// still inside the injection pipeline.
		f.neverEnqueued++
	}
	f.launches += int64(s.Launches)
	f.drops += int64(s.Drops)
	f.circulations += int64(s.Circulations)
	if s.Launches > 1 {
		f.retransmits += int64(s.Launches - 1)
	}
	return nil
}

// AuditSpans reconciles a run's folded spans against the network's
// conservation ledger: the per-packet spans, summed, must reproduce the
// cumulative counters exactly, and every span must satisfy the chain
// invariants (gap-free, non-overlapping, phase sums equal to end-to-end
// latency for delivered packets). Like Audit it holds at any cycle — the
// spans a stream closed early are located via the occupancy terms. It is
// defined over fault-free runs (an armed injector breaks per-packet
// attribution by design; use the digest-equality checks there instead).
func AuditSpans(f *SpanFold, a core.Accounting) error {
	if a.FaultsInjected != 0 {
		return fmt.Errorf("check: AuditSpans is defined over fault-free runs (%d faults fired)", a.FaultsInjected)
	}
	v := append([]string(nil), f.invalid...)
	for _, c := range []struct {
		what        string
		trace, want int64
	}{
		{"spans vs injected", f.spans, a.Injected},
		{"delivered", f.delivered, a.Delivered},
		{"local deliveries", f.local, a.LocalDelivered},
		{"launches", f.launches, a.Launches},
		{"drops", f.drops, a.Drops},
		{"circulations", f.circulations, a.Circulations},
		// Every launch after a packet's first is a retransmission,
		// whatever triggered it.
		{"extra launches vs retransmits", f.retransmits, a.Retransmits},
		// A span with no phases never left the injection pipeline: it was
		// either rejected by a bounded queue or still sits in the pipeline.
		{"never-enqueued vs queue-rejected + pipeline occupancy", f.neverEnqueued, a.QueueRejected + int64(a.Pipeline)},
	} {
		if c.trace != c.want {
			v = append(v, fmt.Sprintf("%s: trace %d, ledger %d", c.what, c.trace, c.want))
		}
	}
	if len(v) > 0 {
		return fmt.Errorf("check: span audit failed (%s):\n  %s", a.Scheme, strings.Join(v, "\n  "))
	}
	return nil
}
