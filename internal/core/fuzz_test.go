package core_test

import (
	"testing"

	"photon/internal/arbiter"
	"photon/internal/core"
	"photon/internal/sim"
)

// FuzzConfigValidate drives Config.Validate with adversarial sweep points
// and enforces the fail-fast contract: either Validate rejects the
// configuration with an error, or NewNetwork must construct and run it
// without panicking. Before this target existed, NaN stall probabilities
// and oversized node counts sailed through Validate and blew up (or
// over-allocated) mid-run.
func FuzzConfigValidate(f *testing.F) {
	// The paper's default, each scheme, and known-nasty inputs.
	f.Add(64, 4, 8, 0, 8, 4, 0, 1, 0.0, 2, 1, uint64(1))
	f.Add(64, 4, 8, 6, 8, 4, 0, 1, 0.5, 2, 1, uint64(7))
	f.Add(16, 1, 4, 4, 1, 1, 2, 1, 0.9, 0, 0, uint64(0))
	f.Add(2, 1, 1, 2, 1, 1, 0, 1, 0.0, 0, 0, uint64(0))
	f.Add(-64, -4, -8, -1, -8, -4, -1, -1, -0.5, -2, -1, uint64(1))
	f.Add(1<<30, 1<<30, 8, 1, 8, 4, 0, 1, 0.0, 2, 1, uint64(1))
	nan := 0.0
	nan /= nan
	f.Add(64, 4, 8, 1, 8, 4, 0, 1, nan, 2, 1, uint64(1))

	f.Fuzz(func(t *testing.T, nodes, cores, rt, scheme, bufDepth, setaside, queueCap, ejectRate int,
		stallProb float64, routerPipe, ejectLat int, seed uint64) {
		cfg := core.Config{
			Nodes:           nodes,
			CoresPerNode:    cores,
			RoundTrip:       rt,
			Scheme:          core.Scheme(scheme),
			BufferDepth:     bufDepth,
			SetasideSize:    setaside,
			QueueCap:        queueCap,
			EjectRate:       ejectRate,
			EjectStallProb:  stallProb,
			RouterPipeline:  routerPipe,
			EjectLatency:    ejectLat,
			Fairness:        arbiter.DefaultFairness(),
			CheckInvariants: true,
			Seed:            seed,
		}
		if err := cfg.Validate(); err != nil {
			return // rejected up front — the fail-fast contract is met
		}
		// Validate's structural caps are deliberately generous; bound the
		// harness's own allocation budget below them.
		if cfg.Nodes > 128 || cfg.CoresPerNode > 8 || cfg.BufferDepth > 1024 ||
			cfg.SetasideSize > 1024 || cfg.EjectRate > 1024 ||
			cfg.RouterPipeline > 1024 || cfg.EjectLatency > 1024 {
			t.Skip("valid but too large to construct under fuzzing")
		}
		net, err := core.NewNetwork(cfg, sim.Window{Warmup: 4, Measure: 16, Drain: 16})
		if err != nil {
			t.Fatalf("Validate accepted a config NewNetwork rejects: %v", err)
		}
		// A validated network must run (invariant checks on) without
		// panicking, traffic or not.
		net.Inject(0, cfg.Nodes-1, 0, 0)
		net.RunCycles(int64(cfg.RoundTrip + cfg.RouterPipeline + 8))
	})
}
