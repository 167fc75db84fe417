package exp

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"photon/internal/core"
	"photon/internal/ptrace"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// exactBreakdownRows measures every scheme's exact attribution at UR
// 0.13, once for the tests that read it.
var exactBreakdownRows = sync.OnceValues(func() (rows []ExactBreakdownRow, err error) {
	for _, s := range core.Schemes() {
		row, err := ExactBreakdownPoint(s, 0.13, QuickOptions())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
})

// TestExactBreakdownInternalConsistency: the span phases of every scheme
// sum to the measured latency at the integer level — no tolerance.
func TestExactBreakdownInternalConsistency(t *testing.T) {
	rows, err := exactBreakdownRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var phaseSum int64
		for _, c := range r.Attr.Phases {
			phaseSum += c
		}
		if phaseSum != r.Attr.Total {
			t.Errorf("%v: phase cycles sum to %d, total latency is %d", r.Result.Scheme, phaseSum, r.Attr.Total)
		}
		if r.Attr.Spans != r.Result.Delivered {
			t.Errorf("%v: %d aggregated spans vs %d measured deliveries", r.Result.Scheme, r.Attr.Spans, r.Result.Delivered)
		}
		if r.Total != r.Result.AvgLatency {
			t.Errorf("%v: exact mean %v != measured AvgLatency %v", r.Result.Scheme, r.Total, r.Result.AvgLatency)
		}
	}
}

// TestExactBreakdownDifferential compares exact attribution against the
// whole-run-average decomposition the engine's own histograms give
// (Result.AvgLatency / AvgArbWait / AvgQueueWait) on every scheme at a
// contended point. Where the average-based decomposition is exact —
// total latency, and the queue/arbitration terms over the launched
// population — the two must agree to the bit. Its flight+eject
// remainder is genuinely approximate: it subtracts a remote-only average
// from an all-deliveries average, so it is off by exactly ΣQW·L/(N·M)
// cycles (L local deliveries, M remote, N = L+M). The test asserts that
// bound, not a hand-waved tolerance — it is why the average-based
// breakdown is not offered as an attribution.
func TestExactBreakdownDifferential(t *testing.T) {
	exact, err := exactBreakdownRows()
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range exact {
		if ex.Result.Scheme != core.Schemes()[i] {
			t.Fatalf("row %d: scheme %v, want %v", i, ex.Result.Scheme, core.Schemes()[i])
		}
		// The average-based decomposition of the same run.
		r := ex.Result
		avgArb := r.AvgArbWait
		avgQueue := math.Max(0, r.AvgQueueWait-avgArb)
		avgRest := math.Max(0, r.AvgLatency-r.AvgQueueWait)

		attr := ex.Attr
		n, l := attr.Spans, attr.Local
		m := n - l // spans that crossed the ring
		if n == 0 || m == 0 {
			t.Fatalf("%v: degenerate population n=%d m=%d", r.Scheme, n, m)
		}

		// Exact where the averages are exact: total latency…
		if ex.Total != r.AvgLatency {
			t.Errorf("%v: total %v != AvgLatency %v", r.Scheme, ex.Total, r.AvgLatency)
		}
		// …the arbitration term (token wait over launched packets)…
		arb := float64(attr.Phases[ptrace.PhaseTokenWait]) / float64(m)
		if arb != avgArb {
			t.Errorf("%v: token-wait %v != AvgArbWait %v", r.Scheme, arb, avgArb)
		}
		// …and the queueing term (enqueue to head-eligibility).
		queue := float64(attr.Phases[ptrace.PhaseQueue]) / float64(m)
		if math.Abs(queue-avgQueue) > 1e-9 {
			t.Errorf("%v: queue %v != average-based queueing %v", r.Scheme, queue, avgQueue)
		}

		// Bounded where the averages are approximate: the flight+eject
		// remainder mixes populations. |average − exact| must equal
		// ΣQW·L/(N·M) up to float rounding.
		sumQW := attr.Phases[ptrace.PhaseQueue] + attr.Phases[ptrace.PhaseTokenWait]
		exactRest := float64(attr.Total-sumQW) / float64(n)
		bound := float64(sumQW) * float64(l) / (float64(n) * float64(m))
		if diff := math.Abs(avgRest - exactRest); diff > bound+1e-9 {
			t.Errorf("%v: average-based flight+eject %v vs exact %v: |diff| %v exceeds population bound %v",
				r.Scheme, avgRest, exactRest, diff, bound)
		}
	}
}

// TestTracedPointDigestInert: arming the streaming assembler, with a tee
// consuming its spans and meta records, must not move the digest — the
// traced run of a point is bit-identical to the untraced run — and the tee
// sees every span the stream flushes.
func TestTracedPointDigestInert(t *testing.T) {
	p := Point{Scheme: core.DHSSetaside, Pattern: traffic.UniformRandom{}, Rate: 0.13}
	plain, err := RunPoint(p, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var spans, metas int64
	traced, _, st, err := RunStreamedPoint(p, QuickOptions(), ptrace.StreamConfig{
		OnSpan: func(*ptrace.PacketSpan) error { spans++; return nil },
		OnMeta: func(ptrace.Record) error { metas++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Digest != plain.Digest || traced.DigestEvents != plain.DigestEvents {
		t.Fatalf("tap moved the digest: traced %016x/%d, plain %016x/%d",
			traced.Digest, traced.DigestEvents, plain.Digest, plain.DigestEvents)
	}
	if spans == 0 || spans != st.Flushed() || metas == 0 {
		t.Fatalf("tee saw %d spans (stream flushed %d) and %d meta records", spans, st.Flushed(), metas)
	}
}

// failingPattern is UR until its draws run out, then panics: a run that
// dies mid-simulation with spans still being assembled.
type failingPattern struct{ left *int }

func (failingPattern) Name() string { return "failing" }

func (p failingPattern) Dest(src, nodes int, rng *sim.RNG) int {
	if *p.left--; *p.left < 0 {
		panic("forced failure mid-run")
	}
	return traffic.UniformRandom{}.Dest(src, nodes, rng)
}

// TestStreamedRunPanicStopsItsTee: when a streamed run panics, no callback
// of its stream runs after the panic leaves RunStreamedPoint. The tee is
// slow, so the assembler is a batch behind when the run fails; its counter
// is a plain int, so under -race a callback racing the caller's read is
// reported even if the counter happens not to move.
func TestStreamedRunPanicStopsItsTee(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spans := 0
	tee := ptrace.StreamConfig{OnSpan: func(*ptrace.PacketSpan) error {
		if spans++; spans%32 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}}
	left := 10_000
	p := Point{Scheme: core.DHS, Pattern: failingPattern{&left}, Rate: 0.13}
	recovered := func() (v any) {
		defer func() { v = recover() }()
		RunStreamedPoint(p, QuickOptions(), tee)
		return nil
	}()
	if recovered != "forced failure mid-run" {
		t.Fatalf("recovered %v, want the pattern's panic", recovered)
	}
	seen := spans
	if seen == 0 {
		t.Fatal("no span was assembled before the failure; the test is vacuous")
	}
	time.Sleep(20 * time.Millisecond)
	if spans != seen {
		t.Fatalf("the tee saw %d spans when the run returned and %d after", seen, spans)
	}
}
