package core_test

import (
	"fmt"
	"testing"

	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// TestSparseStepsMatchEager is the oracle of the sparse phases: Step
// visits only the channels with an arrival, a pulse, a buffered packet or a
// held token due, and defers the arbiters nobody wants, catching them up
// when next needed. A network switched to EagerSteps visits every channel
// in every phase and runs every arbiter every cycle, which is what
// the sparse network must equal — Result, digest and the per-channel
// arbiter counters — for every scheme, fault-free, under chaos with
// recovery, and with ejection stalls, on one- to four-word rings.
//
// The traffic busies the ring, silences it for long enough that every
// arbiter is deferred across fairness windows and token loops, busies it
// again, and drains through RunCycles, whose idle skip defers every
// arbiter at once.
func TestSparseStepsMatchEager(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"fault-free", func(*core.Config) {}},
		{"chaos", func(cfg *core.Config) {
			cfg.Recovery.Enabled = true
			cfg.Fault.Enabled = true
			cfg.Fault.Token = fault.ClassConfig{Rate: 0.002}
			cfg.Fault.Pulse = fault.ClassConfig{Rate: 0.002}
			cfg.Fault.Data = fault.ClassConfig{Rate: 0.002}
		}},
		{"ejectstall", func(cfg *core.Config) { cfg.EjectStallProb = 0.3 }},
	}
	w := &traffic.Workload{Segments: []traffic.Segment{
		{Frac: 0.3, Proc: traffic.BernoulliSpec{Rate: 0.04}},
		{Frac: 0.4, Proc: traffic.BernoulliSpec{Rate: 0}},
		{Frac: 0.3, Proc: traffic.BernoulliSpec{Rate: 0.04}},
	}}
	window := sim.Window{Warmup: 100, Measure: 1500, Drain: 600}
	for _, nodes := range []int{16, 64, 128, 256} {
		for _, s := range core.Schemes() {
			for _, v := range variants {
				t.Run(fmt.Sprintf("n%d/%s/%s", nodes, s, v.name), func(t *testing.T) {
					t.Parallel()
					cfg := core.DefaultConfig(s)
					cfg.Nodes = nodes
					cfg.Fairness.Window = 64 // many window edges inside the silence
					v.mod(&cfg)
					run := func(eager bool) (string, string) {
						net, err := core.NewNetwork(cfg, window)
						if err != nil {
							t.Fatal(err)
						}
						if eager {
							net.EagerSteps()
						}
						inj, err := traffic.NewWorkloadInjector(w, traffic.UniformRandom{}, cfg.Nodes, cfg.CoresPerNode, 3)
						if err != nil {
							t.Fatal(err)
						}
						res := inj.Run(net)
						return fmt.Sprintf("%+v", res), fmt.Sprintf("%+v", net.Diagnostics())
					}
					sparseRes, sparseDiag := run(false)
					eagerRes, eagerDiag := run(true)
					if sparseRes != eagerRes {
						t.Errorf("results differ\n  sparse: %s\n  eager:  %s", sparseRes, eagerRes)
					}
					if sparseDiag != eagerDiag {
						t.Errorf("channel diagnostics differ\n  sparse: %s\n  eager:  %s", sparseDiag, eagerDiag)
					}
				})
			}
		}
	}
}
