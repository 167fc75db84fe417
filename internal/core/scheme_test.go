package core_test

import (
	"errors"
	"testing"

	"photon/internal/arbiter"
	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/sim"
)

func TestSchemeProperties(t *testing.T) {
	cases := []struct {
		s         core.Scheme
		global    bool
		handshake bool
		credits   bool
		circ      bool
		policy    router.SendPolicy
	}{
		{core.TokenChannel, true, false, true, false, router.FireAndForget},
		{core.TokenSlot, false, false, true, false, router.FireAndForget},
		{core.GHS, true, true, false, false, router.HoldHead},
		{core.GHSSetaside, true, true, false, false, router.Setaside},
		{core.DHS, false, true, false, false, router.HoldHead},
		{core.DHSSetaside, false, true, false, false, router.Setaside},
		{core.DHSCirculation, false, false, false, true, router.FireAndForget},
	}
	for _, c := range cases {
		if c.s.Global() != c.global || c.s.Handshake() != c.handshake ||
			c.s.CreditBased() != c.credits || c.s.Circulating() != c.circ ||
			c.s.SendPolicy() != c.policy {
			t.Errorf("%v: property mismatch", c.s)
		}
	}
}

func TestSchemeRoundTripNames(t *testing.T) {
	for _, s := range core.Schemes() {
		got, err := core.ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
		if s.PaperName() == "" {
			t.Errorf("%v: empty paper name", s)
		}
		if s.Hardware().Name == "" {
			t.Errorf("%v: empty hardware name", s)
		}
	}
	if _, err := core.ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestSchemeGroups(t *testing.T) {
	if len(core.GlobalGroup()) != 3 || len(core.DistributedGroup()) != 4 {
		t.Fatal("figure groups have wrong sizes")
	}
	for _, s := range core.GlobalGroup() {
		if !s.Global() {
			t.Errorf("%v in global group", s)
		}
	}
	for _, s := range core.DistributedGroup() {
		if s.Global() {
			t.Errorf("%v in distributed group", s)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"nodes", func(c *core.Config) { c.Nodes = 1 }},
		{"cores", func(c *core.Config) { c.CoresPerNode = 0 }},
		{"roundtrip-zero", func(c *core.Config) { c.RoundTrip = 0 }},
		{"roundtrip-divides", func(c *core.Config) { c.RoundTrip = 7 }},
		{"scheme", func(c *core.Config) { c.Scheme = core.Scheme(99) }},
		{"depth", func(c *core.Config) { c.BufferDepth = 0 }},
		{"queuecap", func(c *core.Config) { c.QueueCap = -1 }},
		{"ejectrate", func(c *core.Config) { c.EjectRate = 0 }},
		{"stall", func(c *core.Config) { c.EjectStallProb = 1 }},
		{"pipeline", func(c *core.Config) { c.RouterPipeline = -1 }},
		{"ejectlat", func(c *core.Config) { c.EjectLatency = -1 }},
		{"fair-window-negative", func(c *core.Config) { c.Fairness.Window = -1 }},
		{"fair-window-wide", func(c *core.Config) { c.Fairness.Window = arbiter.MaxFairnessWindow + 1 }},
		{"fair-quota", func(c *core.Config) { c.Fairness.Quota = -1 }},
	}
	for _, m := range mods {
		cfg := core.DefaultConfig(core.DHS)
		m.mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
		if _, err := core.NewNetwork(cfg, sim.ShortWindow()); err == nil {
			t.Errorf("%s: NewNetwork accepted invalid config", m.name)
		}
	}
	// A window needs a measure phase and no negative phase.
	for _, wc := range []struct {
		window sim.Window
		want   string
	}{
		{sim.Window{Warmup: -5, Measure: 100}, "core: window warmup -5 cycles, need >= 0"},
		{sim.Window{Warmup: 10, Measure: 0, Drain: 10}, "core: window measure 0 cycles, need >= 1"},
		{sim.Window{Measure: -10}, "core: window measure -10 cycles, need >= 1"},
		{sim.Window{Measure: 100, Drain: -1}, "core: window drain -1 cycles, need >= 0"},
	} {
		if _, err := core.NewNetwork(core.DefaultConfig(core.DHS), wc.window); err == nil || err.Error() != wc.want {
			t.Errorf("window %+v: NewNetwork = %v, want %q", wc.window, err, wc.want)
		}
	}
	if _, err := core.NewNetwork(core.DefaultConfig(core.DHS), sim.Window{Measure: 1}); err != nil {
		t.Errorf("one-cycle measure window rejected: %v", err)
	}
	// Fairness settings fail with their named error; 0 still means the
	// default, and the widest window a 16-bit capture count holds passes.
	for _, fc := range []struct {
		window int64
		quota  int
		want   error
	}{
		{-1, 16, arbiter.ErrFairnessWindow},
		{arbiter.MaxFairnessWindow + 1, 16, arbiter.ErrFairnessWindow},
		{512, -1, arbiter.ErrFairnessQuota},
		{0, 0, nil},
		{arbiter.MaxFairnessWindow, 16, nil},
	} {
		cfg := core.DefaultConfig(core.DHSSetaside)
		cfg.Fairness.Window, cfg.Fairness.Quota = fc.window, fc.quota
		if err := cfg.Validate(); !errors.Is(err, fc.want) {
			t.Errorf("fairness window %d quota %d: Validate = %v, want %v", fc.window, fc.quota, err, fc.want)
		}
	}
	// Setaside schemes specifically need setaside slots.
	cfg := core.DefaultConfig(core.GHSSetaside)
	cfg.SetasideSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("setaside scheme without slots accepted")
	}
	// But basic schemes don't care.
	cfg = core.DefaultConfig(core.DHS)
	cfg.SetasideSize = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("basic scheme rejected zero setaside: %v", err)
	}
}

func TestDefaultConfigIsPaper(t *testing.T) {
	cfg := core.DefaultConfig(core.GHS)
	if cfg.Nodes != 64 || cfg.CoresPerNode != 4 || cfg.RoundTrip != 8 || cfg.BufferDepth != 8 {
		t.Fatalf("default config drifted from the paper: %+v", cfg)
	}
	if cfg.Cores() != 256 {
		t.Fatalf("Cores = %d", cfg.Cores())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
