package fault

import (
	"math"
	"strings"
	"testing"
)

func validConfig() Config {
	return Config{
		Enabled: true,
		Warmup:  10,
		Seed:    42,
		Token:   ClassConfig{Rate: 0.1},
		Pulse:   ClassConfig{Rate: 0.05, Burst: 3},
		Data:    ClassConfig{Rate: 0.02},
		Stall:   ClassConfig{Rate: 0.01, Burst: 4},
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"nan rate", func(c *Config) { c.Token.Rate = math.NaN() }, "finite"},
		{"pos inf rate", func(c *Config) { c.Pulse.Rate = math.Inf(1) }, "finite"},
		{"neg inf rate", func(c *Config) { c.Data.Rate = math.Inf(-1) }, "finite"},
		{"negative rate", func(c *Config) { c.Stall.Rate = -0.1 }, "[0, 1]"},
		{"rate above one", func(c *Config) { c.Token.Rate = 1.5 }, "[0, 1]"},
		{"negative burst", func(c *Config) { c.Pulse.Burst = -1 }, ">= 0"},
		{"huge burst", func(c *Config) { c.Data.Burst = MaxBurst + 1 }, "structural cap"},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }, "warmup"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Boundary rates are legal.
	edge := validConfig()
	edge.Token.Rate, edge.Pulse.Rate = 0, 1
	if err := edge.Validate(); err != nil {
		t.Fatalf("boundary rates rejected: %v", err)
	}
}

func TestNewInjectorPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	bad := validConfig()
	bad.Token.Rate = 2
	expectPanic("invalid config", func() { NewInjector(bad, 8) })
	expectPanic("zero nodes", func() { NewInjector(validConfig(), 0) })
}

// TestDeterminism: two injectors built from the same (config, node count)
// must produce the identical fault schedule, and the schedule of one class
// must be independent of whether the other classes are consulted (each
// (class, element) pair owns a private RNG stream).
func TestDeterminism(t *testing.T) {
	const nodes, cycles = 8, 2000
	schedule := func(in *Injector, interleave bool) []bool {
		var s []bool
		for now := int64(0); now < cycles; now++ {
			in.BeginCycle(now, nil)
			for ch := 0; ch < nodes; ch++ {
				s = append(s, in.KillToken(ch, now))
				if interleave {
					// Extra draws on other classes must not disturb tokens.
					in.KillPulse(ch, now)
					in.KillData(ch, now)
				}
			}
		}
		return s
	}
	a := schedule(NewInjector(validConfig(), nodes), false)
	b := schedule(NewInjector(validConfig(), nodes), true)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at draw %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 {
		t.Fatal("schedule never fired; the test proves nothing")
	}
}

func TestWarmupGuard(t *testing.T) {
	cfg := validConfig()
	cfg.Warmup = 500
	cfg.Token.Rate = 1 // would otherwise fire on every draw
	in := NewInjector(cfg, 4)
	for now := int64(0); now < 500; now++ {
		for ch := 0; ch < 4; ch++ {
			if in.KillToken(ch, now) {
				t.Fatalf("token fault fired at cycle %d, inside the warmup guard", now)
			}
		}
	}
	if !in.KillToken(0, 500) {
		t.Fatal("rate-1 token fault did not fire at the first post-warmup opportunity")
	}
	if got := in.Counts()[TokenLoss]; got != 1 {
		t.Fatalf("token count = %d, want 1", got)
	}
}

// TestBurst: a trigger with Burst n must kill exactly n consecutive
// opportunities of the same element.
func TestBurst(t *testing.T) {
	cfg := Config{Enabled: true, Seed: 7, Data: ClassConfig{Rate: 0.01, Burst: 5}}
	in := NewInjector(cfg, 1)
	run := 0
	var runs []int
	for now := int64(0); now < 100_000; now++ {
		if in.KillData(0, now) {
			run++
			continue
		}
		if run > 0 {
			runs = append(runs, run)
			run = 0
		}
	}
	if len(runs) == 0 {
		t.Fatal("no bursts fired")
	}
	for _, r := range runs {
		// Runs shorter than Burst are impossible; longer ones only occur
		// when a fresh trigger lands inside or adjacent to a burst.
		if r < 5 {
			t.Fatalf("burst of length %d, want >= 5", r)
		}
	}
}

func TestZeroRateDrawsNothing(t *testing.T) {
	// A zero-rate class must consume no randomness: an injector that only
	// ever answers false must leave its counters at zero, and Bernoulli
	// must never be consulted (checked indirectly — the token stream of a
	// rate-0 run must match a fresh, untouched injector's).
	cfg := Config{Enabled: true, Seed: 3}
	in := NewInjector(cfg, 2)
	for now := int64(0); now < 1000; now++ {
		in.BeginCycle(now, nil)
		for ch := 0; ch < 2; ch++ {
			if in.KillToken(ch, now) || in.KillPulse(ch, now) || in.KillData(ch, now) || in.Stalled(ch) {
				t.Fatalf("zero-rate injector fired at cycle %d", now)
			}
		}
	}
	if in.Counts() != [NumClasses]int64{} {
		t.Fatalf("zero-rate injector counted faults: %v", in.Counts())
	}
}

// TestStallBurstAndCallback: drift onsets last Burst cycles, and onStall
// fires once per onset (not once per stalled cycle).
func TestStallBurstAndCallback(t *testing.T) {
	cfg := Config{Enabled: true, Seed: 9, Stall: ClassConfig{Rate: 0.01, Burst: 6}}
	in := NewInjector(cfg, 3)
	onsets := 0
	stalledCycles := 0
	for now := int64(0); now < 50_000; now++ {
		in.BeginCycle(now, func(node int) {
			if node < 0 || node >= 3 {
				t.Fatalf("onStall reported node %d", node)
			}
			onsets++
		})
		for n := 0; n < 3; n++ {
			if in.Stalled(n) {
				stalledCycles++
			}
		}
	}
	if onsets == 0 {
		t.Fatal("no stalls fired")
	}
	if got := in.Counts()[NodeStall]; int(got) != onsets {
		t.Fatalf("counts[NodeStall] = %d but onStall fired %d times", got, onsets)
	}
	// Each onset stalls the node for exactly Burst cycles (back-to-back
	// triggers extend the run, so >= is the tight bound cheap to assert).
	if stalledCycles < onsets*6 {
		t.Fatalf("%d onsets stalled only %d node-cycles, want >= %d", onsets, stalledCycles, onsets*6)
	}
}

func TestClassRoundTrip(t *testing.T) {
	cfg := Config{}
	for _, cl := range Classes() {
		cfg = cfg.SetClass(cl, ClassConfig{Rate: 0.25, Burst: int(cl) + 1})
	}
	want := Config{
		Token: ClassConfig{Rate: 0.25, Burst: int(TokenLoss) + 1},
		Pulse: ClassConfig{Rate: 0.25, Burst: int(PulseLoss) + 1},
		Data:  ClassConfig{Rate: 0.25, Burst: int(DataLoss) + 1},
		Stall: ClassConfig{Rate: 0.25, Burst: int(NodeStall) + 1},
	}
	if cfg != want {
		t.Fatalf("SetClass round-trip: got %+v, want %+v", cfg, want)
	}
	for _, cl := range Classes() {
		if cl.String() == "" || strings.HasPrefix(cl.String(), "Class(") {
			t.Fatalf("class %d has no name", int(cl))
		}
	}
}
