package fault

import "testing"

// FuzzFaultConfig drives Validate with adversarial per-class rates, bursts
// and warmups, then proves the fail-fast contract: any config Validate
// accepts must construct an injector and survive a kill/stall loop without
// panicking, and any config it rejects must never reach NewInjector (the
// constructor panics on invalid configs, so a Validate false-negative
// surfaces as a fuzz crash).
func FuzzFaultConfig(f *testing.F) {
	// Seed corpus: defaults, the chaos battery's grid edges, and
	// known-nasty values (NaN via 0/0, boundary rates, cap overshoot).
	f.Add(int64(0), uint64(0), 0.0, 0, 0.0, 0, 0.0, 0, 0.0, 0)
	f.Add(int64(300), uint64(1), 0.001, 2, 0.01, 2, 0.05, 2, 0.05, 4)
	f.Add(int64(0), uint64(7), 1.0, 1, 1.0, 1, 1.0, 1, 1.0, 1)
	f.Add(int64(-1), uint64(0), 0.5, 0, 0.5, 0, 0.5, 0, 0.5, 0)
	f.Add(int64(10), uint64(3), -0.5, -1, 1.5, MaxBurst+1, 0.0, 0, 0.0, 0)
	nan := 0.0
	nan /= nan
	f.Add(int64(5), uint64(2), nan, 2, 0.1, 2, nan, 2, 0.1, 2)

	f.Fuzz(func(t *testing.T, warmup int64, seed uint64,
		tokenRate float64, tokenBurst int,
		pulseRate float64, pulseBurst int,
		dataRate float64, dataBurst int,
		stallRate float64, stallBurst int) {
		cfg := Config{
			Enabled: true,
			Warmup:  warmup,
			Seed:    seed,
			Token:   ClassConfig{Rate: tokenRate, Burst: tokenBurst},
			Pulse:   ClassConfig{Rate: pulseRate, Burst: pulseBurst},
			Data:    ClassConfig{Rate: dataRate, Burst: dataBurst},
			Stall:   ClassConfig{Rate: stallRate, Burst: stallBurst},
		}
		if err := cfg.Validate(); err != nil {
			return // rejected up front — the fail-fast contract is met
		}
		// Validate's burst cap is structural, not an allocation bound, so
		// anything it accepts is cheap to construct and run.
		in := NewInjector(cfg, 4)
		fired := int64(0)
		for now := int64(0); now < 256; now++ {
			in.BeginCycle(now, func(node int) {
				if node < 0 || node >= 4 {
					t.Fatalf("onStall node %d out of range", node)
				}
			})
			for ch := 0; ch < 4; ch++ {
				if in.KillToken(ch, now) {
					fired++
				}
				if in.KillPulse(ch, now) {
					fired++
				}
				if in.KillData(ch, now) {
					fired++
				}
				in.Stalled(ch)
			}
		}
		c := in.Counts()
		if total := c[TokenLoss] + c[PulseLoss] + c[DataLoss]; total != fired {
			t.Fatalf("kill loop observed %d fires but counters say %d", fired, total)
		}
	})
}
