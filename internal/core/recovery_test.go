package core_test

import (
	"errors"
	"fmt"
	"testing"

	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// chaosWindow matches the quick battery's window.
var chaosWindow = sim.Window{Warmup: 300, Measure: 1000, Drain: 1000}

// runFaulty replays a UR tape through one faulty, recovery-enabled network
// and returns the result plus the network for accounting.
func runFaulty(t *testing.T, s core.Scheme, fc fault.Config, recovery bool, load float64, seed uint64) (core.Result, *core.Network) {
	t.Helper()
	cfg := core.DefaultConfig(s)
	cfg.Seed = seed
	cfg.Fault = fc
	cfg.Recovery.Enabled = recovery
	net, err := core.NewNetwork(cfg, chaosWindow)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := traffic.RecordTape(traffic.UniformRandom{}, load, cfg.Nodes, cfg.CoresPerNode,
		sim.DeriveSeed(seed, 99), chaosWindow.Warmup+chaosWindow.Measure)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tape.Run(net)
	if err != nil {
		t.Fatal(err)
	}
	return res, net
}

func classConfig(cl fault.Class, rate float64, burst int) fault.Config {
	fc := fault.Config{Enabled: true, Warmup: chaosWindow.Warmup}
	return fc.SetClass(cl, fault.ClassConfig{Rate: rate, Burst: burst})
}

// TestRateZeroReproducesSeedDigests pins the acceptance criterion from
// EXPERIMENTS.md: an enabled injector with every rate at zero, plus the
// recovery machinery armed, must reproduce the fault-free quick-grid
// digests (UR @ 0.13, seed 1, windows 300/1000/1000) bit for bit. The
// hex values are the EXPERIMENTS.md "UR @ 0.13" column; a shift here is a
// behaviour shift in the fault-free protocol.
func TestRateZeroReproducesSeedDigests(t *testing.T) {
	want := map[core.Scheme]string{
		core.TokenChannel:   "9fa40151ac8c907c",
		core.TokenSlot:      "4ebced9eeaf9a211",
		core.GHS:            "52e0408d1b0d60e3",
		core.GHSSetaside:    "3318d9bec3d24eef",
		core.DHS:            "bd11d19c4b7206f4",
		core.DHSSetaside:    "236b458c65ca1419",
		core.DHSCirculation: "73671dbfc58a4992",
	}
	// The quick battery's UR @ 0.13 tape is the second one recorded:
	// DeriveSeed(1, 1).
	cfg0 := core.DefaultConfig(core.TokenChannel)
	tape, err := traffic.RecordTape(traffic.UniformRandom{}, 0.13, cfg0.Nodes, cfg0.CoresPerNode,
		sim.DeriveSeed(1, 1), chaosWindow.Warmup+chaosWindow.Measure)
	if err != nil {
		t.Fatal(err)
	}
	for s, wantHex := range want {
		cfg := core.DefaultConfig(s)
		cfg.Seed = 1
		cfg.Fault = fault.Config{Enabled: true} // all rates zero
		cfg.Recovery.Enabled = true
		net, err := core.NewNetwork(cfg, chaosWindow)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tape.Run(net)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", res.Digest); got != wantHex {
			t.Errorf("%s: rate-0 digest %s != EXPERIMENTS.md seed digest %s", s, got, wantHex)
		}
		if res.FaultsInjected != 0 {
			t.Errorf("%s: rate-0 run injected %d faults", s, res.FaultsInjected)
		}
	}
}

// TestFaultDeterminism: same (seed, fault config) must give bit-identical
// results, fault schedule included.
func TestFaultDeterminism(t *testing.T) {
	fc := fault.Config{
		Enabled: true,
		Warmup:  chaosWindow.Warmup,
		Token:   fault.ClassConfig{Rate: 0.01, Burst: 2},
		Pulse:   fault.ClassConfig{Rate: 0.01, Burst: 2},
		Data:    fault.ClassConfig{Rate: 0.01, Burst: 2},
		Stall:   fault.ClassConfig{Rate: 0.005, Burst: 4},
	}
	for _, s := range []core.Scheme{core.GHS, core.DHSSetaside} {
		a, _ := runFaulty(t, s, fc, true, 0.05, 5)
		b, _ := runFaulty(t, s, fc, true, 0.05, 5)
		if a != b {
			t.Errorf("%s: faulty runs diverged: digest %016x vs %016x (faults %d vs %d)",
				s, a.Digest, b.Digest, a.FaultsInjected, b.FaultsInjected)
		}
		if a.FaultsInjected == 0 {
			t.Errorf("%s: no faults fired; determinism under faults was not exercised", s)
		}
	}
}

// drainAndAssertRecovered drains and asserts zero permanent loss.
func drainAndAssertRecovered(t *testing.T, s core.Scheme, net *core.Network, label string) {
	t.Helper()
	if left, err := net.Drain(60_000); err != nil {
		t.Fatalf("%s/%s: %d packets stuck: %v", s, label, left, err)
	}
	a := net.Accounting()
	if a.Lost != 0 || a.Delivered+a.QueueRejected != a.Injected {
		t.Fatalf("%s/%s: permanent loss: injected %d, delivered %d, rejected %d, lost %d",
			s, label, a.Injected, a.Delivered, a.QueueRejected, a.Lost)
	}
}

// TestRecoveryFromAckLoss: lost ACKs leave the sender holding an already
// accepted packet; the timeout retransmits, the home discards the
// duplicate and re-ACKs, and nothing is lost.
func TestRecoveryFromAckLoss(t *testing.T) {
	for _, s := range []core.Scheme{core.GHS, core.GHSSetaside, core.DHS, core.DHSSetaside} {
		res, net := runFaulty(t, s, classConfig(fault.PulseLoss, 0.05, 2), true, 0.02, 1)
		if res.FaultsInjected == 0 {
			t.Fatalf("%s: no pulse faults fired", s)
		}
		drainAndAssertRecovered(t, s, net, "pulse-loss")
		a := net.Accounting()
		if a.AcksLost > 0 && a.DupsDiscarded == 0 {
			t.Errorf("%s: %d ACKs lost but no duplicate was ever discarded", s, a.AcksLost)
		}
		if a.TimeoutRetransmits == 0 {
			t.Errorf("%s: pulses were lost but no timeout ever fired", s)
		}
	}
}

// TestRecoveryFromDataLoss: destroyed data flits are retransmitted from
// the sender's retained copy after the timeout (the home cannot NACK an
// unreadable arrival).
func TestRecoveryFromDataLoss(t *testing.T) {
	for _, s := range []core.Scheme{core.GHS, core.DHS, core.DHSSetaside} {
		res, net := runFaulty(t, s, classConfig(fault.DataLoss, 0.05, 2), true, 0.02, 1)
		if res.FaultsInjected == 0 {
			t.Fatalf("%s: no data faults fired", s)
		}
		drainAndAssertRecovered(t, s, net, "data-loss")
		if net.Accounting().TimeoutRetransmits == 0 {
			t.Errorf("%s: data was destroyed but no timeout ever fired", s)
		}
	}
}

// TestRecoveryFromTokenLoss: the home watchdog re-emits a lost global
// token, and a credit-slot scheme's stranded credit is reclaimed at
// nominal expiry. DHS slot tokens carry no strandable state — a killed
// grant suppresses one capture and the next cycle emits a fresh slot — so
// those schemes must drain clean with zero regenerations.
func TestRecoveryFromTokenLoss(t *testing.T) {
	needsRegen := map[core.Scheme]bool{
		core.TokenChannel: true, core.TokenSlot: true,
		core.GHS: true, core.GHSSetaside: true,
	}
	for _, s := range core.Schemes() {
		res, net := runFaulty(t, s, classConfig(fault.TokenLoss, 0.01, 1), true, 0.02, 1)
		if res.FaultsInjected == 0 {
			t.Fatalf("%s: no token faults fired", s)
		}
		drainAndAssertRecovered(t, s, net, "token-loss")
		if needsRegen[s] && res.TokensRegenerated == 0 {
			t.Errorf("%s: tokens were lost but none regenerated", s)
		}
		if !needsRegen[s] && res.TokensRegenerated != 0 {
			t.Errorf("%s: %d regenerations on a scheme with stateless slot grants",
				s, res.TokensRegenerated)
		}
	}
}

// TestRecoveryFromStalls: resonator drift only delays; every scheme must
// drain clean with no recovery action beyond waiting.
func TestRecoveryFromStalls(t *testing.T) {
	for _, s := range core.Schemes() {
		res, net := runFaulty(t, s, classConfig(fault.NodeStall, 0.01, 8), true, 0.02, 1)
		if res.FaultsInjected == 0 {
			t.Fatalf("%s: no stalls fired", s)
		}
		drainAndAssertRecovered(t, s, net, "node-stall")
	}
}

// TestRecoveryOffStrands: with recovery disabled, data loss strands the
// sender's retained copy forever and Drain reports the named error.
func TestRecoveryOffStrands(t *testing.T) {
	res, net := runFaulty(t, core.DHS, classConfig(fault.DataLoss, 0.05, 2), false, 0.02, 1)
	if res.FaultsInjected == 0 {
		t.Fatal("no data faults fired")
	}
	left, err := net.Drain(20_000)
	if !errors.Is(err, core.ErrDrainStalled) {
		t.Fatalf("expected ErrDrainStalled, got %v (left %d)", err, left)
	}
	var de *core.DrainError
	if !errors.As(err, &de) {
		t.Fatalf("drain error is not a *DrainError: %v", err)
	}
	if de.Outstanding != left || left == 0 {
		t.Fatalf("DrainError outstanding %d, returned left %d", de.Outstanding, left)
	}
}

// TestFireAndForgetPermanentLoss: a scheme with no sender retention counts
// destroyed data as Lost; conservation holds through the Lost term and the
// drain still quiesces.
func TestFireAndForgetPermanentLoss(t *testing.T) {
	res, net := runFaulty(t, core.TokenChannel, classConfig(fault.DataLoss, 0.05, 2), true, 0.02, 1)
	if res.FaultsInjected == 0 {
		t.Fatal("no data faults fired")
	}
	if left, err := net.Drain(60_000); err != nil {
		t.Fatalf("drain: %v (left %d)", err, left)
	}
	a := net.Accounting()
	if a.Lost == 0 {
		t.Fatal("data faults fired on a fire-and-forget scheme but nothing was recorded lost")
	}
	if a.Delivered+a.QueueRejected+a.Lost != a.Injected {
		t.Fatalf("conservation with loss: injected %d != delivered %d + rejected %d + lost %d",
			a.Injected, a.Delivered, a.QueueRejected, a.Lost)
	}
}

// TestWatchdogDuplicateGuard: a watchdog window shorter than the token's
// natural silence period (long transmissions hold the token off the loop)
// would fire spuriously; the duplicate-token guard must refuse every such
// firing, leaving the fault-free digest untouched.
func TestWatchdogDuplicateGuard(t *testing.T) {
	run := func(window int) core.Result {
		cfg := core.DefaultConfig(core.GHS)
		cfg.Seed = 1
		cfg.Fault = fault.Config{Enabled: true} // no faults: nothing is ever lost
		cfg.Recovery.Enabled = true
		cfg.Recovery.WatchdogWindow = window
		net, err := core.NewNetwork(cfg, chaosWindow)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := traffic.RecordTape(traffic.UniformRandom{}, 0.10, cfg.Nodes, cfg.CoresPerNode,
			sim.DeriveSeed(1, 7), chaosWindow.Warmup+chaosWindow.Measure)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tape.Run(net)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// An aggressively short window fires the watchdog often; the guard
	// must refuse every regeneration and keep the digest identical to the
	// default-window run.
	aggressive, relaxed := run(2), run(0)
	if aggressive.TokensRegenerated != 0 {
		t.Fatalf("guard admitted %d regenerations with no token ever lost", aggressive.TokensRegenerated)
	}
	if aggressive.Digest != relaxed.Digest {
		t.Fatalf("spurious watchdog firings changed the digest: %016x vs %016x",
			aggressive.Digest, relaxed.Digest)
	}
}

// TestConfigValidateFaultBlock: the network-level Validate must reject
// malformed fault and recovery blocks.
func TestConfigValidateFaultBlock(t *testing.T) {
	base := func() core.Config {
		cfg := core.DefaultConfig(core.DHS)
		cfg.Fault.Enabled = true
		cfg.Recovery.Enabled = true
		return cfg
	}
	nan := 0.0
	nan /= nan
	cases := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"rate above one", func(c *core.Config) { c.Fault.Token.Rate = 1.5 }},
		{"negative rate", func(c *core.Config) { c.Fault.Data.Rate = -0.1 }},
		{"nan rate", func(c *core.Config) { c.Fault.Pulse.Rate = nan }},
		{"negative warmup", func(c *core.Config) { c.Fault.Warmup = -5 }},
		{"negative watchdog", func(c *core.Config) { c.Recovery.WatchdogWindow = -1 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %s", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid fault/recovery config rejected: %v", err)
	}
	// A disabled fault block is inert: invalid rates inside it are ignored.
	off := base()
	off.Fault = fault.Config{Token: fault.ClassConfig{Rate: 99}}
	if err := off.Validate(); err != nil {
		t.Fatalf("disabled fault block was validated anyway: %v", err)
	}
}
