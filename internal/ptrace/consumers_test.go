package ptrace_test

import (
	"reflect"
	"testing"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/ptrace"
	"photon/internal/traffic"
)

// TestConsumersDropSpansAtHandOff holds the production OnSpan consumers to
// the hand-off contract: exp.RunStreamedPoint and exp.RunWorkloadSLO fold
// each span inside the callback and keep nothing, so overwriting every
// span buffer the moment the callback returns changes none of their
// output. A setaside scheme behind shallow, stalling receivers makes the
// spans NACK, retransmit and flush late (at the slot's release). The test
// lives here rather than in internal/exp because the poison switch is
// unexported.
func TestConsumersDropSpansAtHandOff(t *testing.T) {
	nacking := func(c *core.Config) { c.BufferDepth, c.EjectStallProb = 2, 0.5 }
	_, bursty, err := traffic.PresetWorkload("bursty")
	if err != nil {
		t.Fatal(err)
	}
	opts := exp.QuickOptions()

	type outcome struct {
		res    core.Result
		attr   ptrace.Attribution
		live   int
		slo    exp.WorkloadSLO
		sloErr error
	}
	run := func(poison bool) outcome {
		ptrace.SetPoisonSpans(poison)
		defer ptrace.SetPoisonSpans(false)
		var o outcome
		var st *ptrace.Stream
		o.res, o.attr, st, err = exp.RunStreamedPoint(exp.Point{
			Scheme: core.DHSSetaside, Pattern: traffic.UniformRandom{}, Rate: 0.08, Mod: nacking,
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		o.live = st.MaxLive()
		o.slo, o.sloErr = exp.RunWorkloadSLO(exp.Point{
			Scheme: core.GHSSetaside, Pattern: traffic.UniformRandom{}, Workload: bursty, Mod: nacking,
		}, opts)
		return o
	}

	clean, poisoned := run(false), run(true)
	if clean.sloErr != nil || poisoned.sloErr != nil {
		t.Fatalf("RunWorkloadSLO: %v (clean), %v (poisoned)", clean.sloErr, poisoned.sloErr)
	}
	if clean.attr.Drops == 0 || clean.attr.Setaside == 0 {
		t.Fatalf("no NACK or no setaside residency (%+v); the late-flush path went unexercised", clean.attr)
	}
	if !reflect.DeepEqual(clean, poisoned) {
		t.Fatalf("a consumer read a span after its hand-off:\n clean    %+v\n poisoned %+v", clean, poisoned)
	}
}
