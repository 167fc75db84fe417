package exp

import (
	"math"
	"testing"

	"photon/internal/core"
	"photon/internal/traffic"
)

// TestReplicateStability: independent seeds must agree closely at a
// sub-saturation operating point — the repeatability-of-conclusions check
// behind every number quoted in EXPERIMENTS.md.
func TestReplicateStability(t *testing.T) {
	rep, err := Replicate(Point{
		Scheme:  core.DHSSetaside,
		Pattern: traffic.UniformRandom{},
		Rate:    0.09,
	}, 5, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 5 {
		t.Fatalf("N = %d", rep.N)
	}
	mean := rep.Latency.Mean()
	if mean <= 0 {
		t.Fatal("no latency recorded")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, run := range rep.Runs {
		lo, hi = min(lo, run.Result.AvgLatency), max(hi, run.Result.AvgLatency)
		if run.Result.Throughput <= 0 {
			t.Fatal("a replicate delivered nothing")
		}
	}
	if spread := hi - lo; spread > 0.1*mean {
		t.Fatalf("cross-seed latency spread %.2f cycles exceeds 10%% of mean %.2f", spread, mean)
	}
}

// TestReplicateSeedsDiffer: replicates must actually use different seeds
// (non-zero variance at a stochastic operating point).
func TestReplicateSeedsDiffer(t *testing.T) {
	rep, err := Replicate(Point{
		Scheme:  core.DHSSetaside,
		Pattern: traffic.UniformRandom{},
		Rate:    0.11,
	}, 4, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency.Var() == 0 {
		t.Fatal("replicates identical — seeds were not varied")
	}
}
