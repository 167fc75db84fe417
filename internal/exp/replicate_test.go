package exp

import (
	"math"
	"testing"

	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// Replication is the aggregate of independent-seed repetitions of one
// point — simulation confidence intervals for results quoted in
// EXPERIMENTS.md.
type Replication struct {
	N          int
	Latency    stats.MeanVar
	Throughput stats.MeanVar
	DropRate   stats.MeanVar
	// Runs records each replication's seed and full result (digest
	// included), so any quoted confidence interval can cite the exact
	// reproducible runs behind it.
	Runs []ReplicateRun
}

// ReplicateRun identifies one replication: rerunning the point with Seed
// must reproduce Result bit-for-bit (same Digest).
type ReplicateRun struct {
	Seed   uint64
	Digest uint64
	Result core.Result
}

// ReplicateSeed returns the seed of replication i for a base seed. The
// derivation is injective in i (see sim.DeriveSeed): no two replications
// of one base ever share a seed, which TestReplicateSeedDerivation pins.
func ReplicateSeed(base uint64, i int) uint64 {
	return sim.DeriveSeed(base, uint64(i))
}

// Replicate runs a point n times with derived seeds and aggregates. It
// runs serially — replication is an offline confidence-interval tool.
func Replicate(p Point, n int, opts Options) (Replication, error) {
	var rep Replication
	for i := 0; i < n; i++ {
		o := opts
		o.Seed = ReplicateSeed(opts.Seed, i)
		res, err := RunPoint(p, o)
		if err != nil {
			return rep, err
		}
		rep.N++
		rep.Latency.Add(res.AvgLatency)
		rep.Throughput.Add(res.Throughput)
		rep.DropRate.Add(res.DropRate)
		rep.Runs = append(rep.Runs, ReplicateRun{Seed: o.Seed, Digest: res.Digest, Result: res})
	}
	return rep, nil
}

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
