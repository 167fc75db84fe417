package core_test

import (
	"fmt"
	"testing"

	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// The idle skip-ahead equivalence battery: RunCycles with the fast path
// enabled must be bit-identical — digest, clock, occupancy, delivery
// counts — to stepping every cycle. The scenarios alternate injection
// bursts with long idle gaps routed through RunCycles, which is exactly
// the shape (tape gaps, drain tails) the fast path exists for, and they
// include recovery timers, fault injection and eject stalls — the
// configurations where skipping a cycle that is not actually dead would
// drop a timer, a Bernoulli draw, or a watchdog observation.

// skipFingerprint condenses everything the equivalence battery compares.
type skipFingerprint struct {
	digest      uint64
	now         int64
	outstanding int
	backlog     int
	delivered   int64
	launches    int64
	retx        int64
}

func (fp skipFingerprint) String() string {
	return fmt.Sprintf("digest=%016x now=%d outstanding=%d backlog=%d delivered=%d launches=%d retx=%d",
		fp.digest, fp.now, fp.outstanding, fp.backlog, fp.delivered, fp.launches, fp.retx)
}

// driveBursty runs one network through a deterministic burst/gap schedule:
// a few cycles of random injections, then an idle gap handed to RunCycles
// whole, repeated, with a long tail gap at the end. All randomness comes
// from a private RNG seeded identically for both members of a pair;
// disable turns the fast path off for the reference member.
func driveBursty(t testing.TB, cfg core.Config, seed uint64, rounds int, disable bool) skipFingerprint {
	t.Helper()
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 40, Drain: 0})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if disable {
		net.DisableSkipAhead()
	}
	rng := sim.NewRNG(seed)
	cores := uint64(cfg.Cores())
	nodes := uint64(cfg.Nodes)
	for r := 0; r < rounds; r++ {
		burst := 1 + int(rng.Uint64()%6)
		for b := 0; b < burst; b++ {
			for j := uint64(0); j < rng.Uint64()%4; j++ {
				net.Inject(int(rng.Uint64()%cores), int(rng.Uint64()%nodes), router.ClassData, 0)
			}
			net.Step()
		}
		// Gaps between ~0 and ~3x the drain time of a small burst: some
		// end before quiescence, some deep inside it.
		net.RunCycles(int64(rng.Uint64() % 400))
	}
	net.RunCycles(1 << 12) // long tail: the fast path's main course
	return skipFingerprint{
		digest:      net.Digest(),
		now:         net.Now(),
		outstanding: net.Outstanding(),
		backlog:     net.Accounting().Backlog,
		delivered:   net.Stats().Delivered,
		launches:    net.Stats().Launches,
		retx:        net.Stats().Retransmits,
	}
}

// skipVariants enumerates the configuration corners the battery covers for
// each scheme: plain, recovery armed without faults (timers and watchdogs
// live but provably inert), faults + recovery (the gate must disengage),
// and eject stalls (per-cycle RNG draws the gate must respect).
func skipVariants() map[string]func(*core.Config) {
	return map[string]func(*core.Config){
		"plain": func(cfg *core.Config) {},
		"recovery": func(cfg *core.Config) {
			cfg.Recovery.Enabled = true
		},
		"faults": func(cfg *core.Config) {
			cfg.Recovery.Enabled = true
			cfg.Fault.Enabled = true
			cfg.Fault.Token = fault.ClassConfig{Rate: 0.002}
			cfg.Fault.Pulse = fault.ClassConfig{Rate: 0.002}
			cfg.Fault.Data = fault.ClassConfig{Rate: 0.002}
		},
		"ejectstall": func(cfg *core.Config) {
			cfg.EjectStallProb = 0.05
		},
	}
}

// TestSkipAheadEquivalence is the property test: for every scheme and
// configuration corner, a skip-enabled run and a cycle-by-cycle run of the
// same burst/gap schedule must agree on every observable.
func TestSkipAheadEquivalence(t *testing.T) {
	for _, s := range core.Schemes() {
		for name, mod := range skipVariants() {
			t.Run(s.String()+"/"+name, func(t *testing.T) {
				t.Parallel()
				for seed := uint64(1); seed <= 2; seed++ {
					cfg := core.DefaultConfig(s)
					cfg.Nodes = 16
					cfg.CoresPerNode = 2
					mod(&cfg)
					cfg.Seed = seed

					on := driveBursty(t, cfg, seed, 20, false)
					off := driveBursty(t, cfg, seed, 20, true)
					if on != off {
						t.Errorf("seed %d: skip-on and skip-off runs diverged\n  on:  %v\n  off: %v", seed, on, off)
					}
				}
			})
		}
	}
}

// TestSkipAheadTapeEquivalence replays one sparse tape — long idle
// stretches between injections, where Tape.Run hands the gaps to
// RunCycles — with the fast path on and off, pinning digest equality on
// the driver real experiments use.
func TestSkipAheadTapeEquivalence(t *testing.T) {
	for _, s := range []core.Scheme{core.TokenChannel, core.TokenSlot, core.DHS, core.DHSCirculation} {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig(s)
			cfg.Nodes = 16
			cfg.CoresPerNode = 2
			window := sim.Window{Warmup: 200, Measure: 2000, Drain: 1000}
			tape, err := traffic.RecordTape(traffic.UniformRandom{}, 0.002, cfg.Nodes, cfg.CoresPerNode, 7, window.Warmup+window.Measure)
			if err != nil {
				t.Fatal(err)
			}
			run := func(disable bool) core.Result {
				net, err := core.NewNetwork(cfg, window)
				if err != nil {
					t.Fatal(err)
				}
				if disable {
					net.DisableSkipAhead()
				}
				res, err := tape.Run(net)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			on, off := run(false), run(true)
			if on.Digest != off.Digest {
				t.Errorf("tape digests diverged: skip-on %016x, skip-off %016x", on.Digest, off.Digest)
			}
			if on.AvgLatency != off.AvgLatency || on.Delivered != off.Delivered {
				t.Errorf("tape results diverged: skip-on %+v, skip-off %+v", on, off)
			}
		})
	}
}

// FuzzSkipAheadEquivalence searches the configuration space for any point
// where the fast path diverges from cycle-by-cycle stepping: scheme,
// geometry, load shape, fault and stall rates, and seed all vary.
func FuzzSkipAheadEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint64(1), uint16(300), false, false, uint16(0))
	f.Add(uint8(0), uint8(8), uint64(7), uint16(50), true, false, uint16(20))
	f.Add(uint8(6), uint8(32), uint64(3), uint16(999), false, true, uint16(0))
	f.Add(uint8(2), uint8(16), uint64(42), uint16(128), true, true, uint16(500))
	f.Fuzz(func(t *testing.T, schemeIdx, nodes uint8, seed uint64, gapScale uint16, recovery, stalls bool, faultMil uint16) {
		schemes := core.Schemes()
		cfg := core.DefaultConfig(schemes[int(schemeIdx)%len(schemes)])
		cfg.Nodes = int(nodes)
		cfg.CoresPerNode = 1
		if cfg.Nodes < 2 || cfg.Nodes > 64 || cfg.Nodes%cfg.RoundTrip != 0 {
			t.Skip("geometry outside the battery's budget")
		}
		cfg.Recovery.Enabled = recovery
		if stalls {
			cfg.EjectStallProb = 0.1
		}
		if faultMil > 0 {
			cfg.Fault.Enabled = true
			cfg.Recovery.Enabled = true
			rate := float64(faultMil%1000) / 1000 * 0.01
			cfg.Fault.Data = fault.ClassConfig{Rate: rate}
			cfg.Fault.Pulse = fault.ClassConfig{Rate: rate}
		}
		if cfg.Fault.Enabled {
			if err := cfg.Fault.Validate(); err != nil {
				t.Skip("fault config rejected")
			}
		}
		cfg.Seed = seed

		drive := func(disable bool) skipFingerprint {
			net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 1 << 40, Drain: 0})
			if err != nil {
				t.Skip("config rejected")
			}
			if disable {
				net.DisableSkipAhead()
			}
			rng := sim.NewRNG(seed)
			for r := 0; r < 8; r++ {
				for b := 0; b < 3; b++ {
					if rng.Uint64()%2 == 0 {
						net.Inject(int(rng.Uint64()%uint64(cfg.Cores())), int(rng.Uint64()%uint64(cfg.Nodes)), router.ClassData, 0)
					}
					net.Step()
				}
				net.RunCycles(int64(rng.Uint64() % (uint64(gapScale) + 1)))
			}
			net.RunCycles(2048)
			return skipFingerprint{
				digest:      net.Digest(),
				now:         net.Now(),
				outstanding: net.Outstanding(),
				backlog:     net.Accounting().Backlog,
				delivered:   net.Stats().Delivered,
				launches:    net.Stats().Launches,
				retx:        net.Stats().Retransmits,
			}
		}
		if on, off := drive(false), drive(true); on != off {
			t.Errorf("skip-on and skip-off diverged\n  on:  %v\n  off: %v", on, off)
		}
	})
}
