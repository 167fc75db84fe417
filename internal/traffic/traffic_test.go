package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"photon/internal/core"
	"photon/internal/sim"
)

func TestUniformRandomExcludesSelf(t *testing.T) {
	rng := sim.NewRNG(1)
	p := UniformRandom{}
	counts := make([]int, 8)
	for i := 0; i < 10000; i++ {
		d := p.Dest(3, 8, rng)
		if d == 3 {
			t.Fatal("UR returned the source")
		}
		counts[d]++
	}
	for d, c := range counts {
		if d == 3 {
			continue
		}
		want := 10000.0 / 7
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("dest %d hit %d times, want about %.0f", d, c, want)
		}
	}
}

func TestBitComplement(t *testing.T) {
	p := BitComplement{}
	// For power-of-two node counts this is the bitwise complement.
	for src := 0; src < 64; src++ {
		if got := p.Dest(src, 64, nil); got != (^src)&63 {
			t.Fatalf("BC(%d) = %d, want %d", src, got, (^src)&63)
		}
	}
	// Involution: BC(BC(x)) == x.
	for src := 0; src < 64; src++ {
		if p.Dest(p.Dest(src, 64, nil), 64, nil) != src {
			t.Fatalf("BC not an involution at %d", src)
		}
	}
}

func TestTornadoDistance(t *testing.T) {
	p := Tornado{}
	for src := 0; src < 64; src++ {
		d := p.Dest(src, 64, nil)
		dist := ((d - src) + 64) % 64
		if dist != 31 {
			t.Fatalf("TOR(%d) distance %d, want 31", src, dist)
		}
	}
}

func TestTransposeOnSquare(t *testing.T) {
	p := Transpose{}
	// 64 nodes = 8x8 grid; transpose twice is identity.
	for src := 0; src < 64; src++ {
		if p.Dest(p.Dest(src, 64, nil), 64, nil) != src {
			t.Fatalf("TP not an involution at %d", src)
		}
	}
	// (x,y) -> (y,x): node 1 = (1,0) -> (0,1) = node 8.
	if p.Dest(1, 64, nil) != 8 {
		t.Fatalf("TP(1) = %d, want 8", p.Dest(1, 64, nil))
	}
}

func TestNeighbor(t *testing.T) {
	p := Neighbor{}
	if p.Dest(63, 64, nil) != 0 || p.Dest(0, 64, nil) != 1 {
		t.Fatal("NBR wraparound wrong")
	}
}

func TestHotspotConcentration(t *testing.T) {
	rng := sim.NewRNG(2)
	p := Hotspot{Hot: 5, Fraction: 0.5}
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if p.Dest(0, 64, rng) == 5 {
			hot++
		}
	}
	got := float64(hot) / draws
	// 0.5 direct plus 0.5/63 from the uniform remainder.
	want := 0.5 + 0.5/63
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("hot fraction %.3f, want about %.3f", got, want)
	}
}

func TestAllPatternsInRange(t *testing.T) {
	rng := sim.NewRNG(3)
	pats := []Pattern{UniformRandom{}, BitComplement{}, Tornado{}, Transpose{}, Neighbor{}, Hotspot{Hot: 1, Fraction: 0.3}}
	f := func(srcRaw uint8) bool {
		src := int(srcRaw) % 64
		for _, p := range pats {
			d := p.Dest(src, 64, rng)
			if d < 0 || d >= 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"UR", "BC", "TOR", "TP", "NBR", "ur", "tornado"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown pattern accepted")
	}
	if len(PaperPatterns()) != 3 {
		t.Error("PaperPatterns should return UR, BC, TOR")
	}
}

func TestInjectorValidation(t *testing.T) {
	if _, err := NewInjector(UniformRandom{}, -0.1, 64, 4, 1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewInjector(UniformRandom{}, 1.5, 64, 4, 1); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := NewInjector(nil, 0.1, 64, 4, 1); err == nil {
		t.Error("nil pattern accepted")
	}
}

func TestInjectorRateAccuracy(t *testing.T) {
	cfg := core.DefaultConfig(core.DHSSetaside)
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 5000, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(UniformRandom{}, 0.05, cfg.Nodes, cfg.CoresPerNode, 9)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 5000
	for i := 0; i < cycles; i++ {
		inj.Tick(net)
		net.Step()
	}
	got := float64(net.Stats().Injected) / float64(cycles) / float64(cfg.Cores())
	if math.Abs(got-0.05) > 0.002 {
		t.Fatalf("injected rate %.4f, want 0.05", got)
	}
}

func TestInjectorStop(t *testing.T) {
	cfg := core.DefaultConfig(core.TokenSlot)
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(UniformRandom{}, 0.5, cfg.Nodes, cfg.CoresPerNode, 9)
	if err != nil {
		t.Fatal(err)
	}
	inj.Stop()
	for i := 0; i < 100; i++ {
		inj.Tick(net)
		net.Step()
	}
	if net.Stats().Injected != 0 {
		t.Fatalf("stopped injector injected %d packets", net.Stats().Injected)
	}
}

func TestInjectorAccessors(t *testing.T) {
	inj, err := NewInjector(Tornado{}, 0.07, 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Rate() != 0.07 || inj.pattern.Name() != "TOR" {
		t.Fatal("accessors wrong")
	}
}
