package traffic

import (
	"fmt"
	"math"
	"testing"

	"photon/internal/sim"
)

// The cycle-by-cycle generator, kept as the oracle of the block generator.
// This is the loop the workload layer is specified by — every cycle, every
// core in ascending order: one arrival draw, then on a hit the destination
// draw — with each arrival process in its one-draw-per-(core, cycle) form.
// Injector.refill must reproduce its tapes entry for entry.

type cycleArrival interface {
	draw(c int, t int64, w float64, rng *sim.RNG) bool
}

type cycleBernoulli struct{ rate float64 }

func (a cycleBernoulli) draw(c int, t int64, w float64, rng *sim.RNG) bool {
	return rng.Bernoulli(a.rate * w)
}

type cycleBurst struct {
	spec BurstSpec
	st   []burstState
}

func (a *cycleBurst) draw(c int, t int64, w float64, rng *sim.RNG) bool {
	s := &a.st[c]
	if !s.started {
		s.started = true
		s.on = rng.Bernoulli(a.spec.On / (a.spec.On + a.spec.Off))
		if s.on {
			s.left = regime(a.spec.On, rng)
		} else {
			s.left = regime(a.spec.Off, rng)
		}
	}
	for s.left == 0 {
		s.on = !s.on
		if s.on {
			s.left = regime(a.spec.On, rng)
		} else {
			s.left = regime(a.spec.Off, rng)
		}
	}
	s.left--
	return s.on && rng.Bernoulli(a.spec.Rate*w)
}

type cycleFlash struct {
	spec FlashSpec
	span int64
}

func (a cycleFlash) draw(c int, t int64, w float64, rng *sim.RNG) bool {
	rate := a.spec.Base
	if t >= int64(a.spec.At*float64(a.span)) && t < int64((a.spec.At+a.spec.Width)*float64(a.span)) {
		rate = a.spec.Peak
	}
	return rng.Bernoulli(rate * w)
}

type cycleDiurnal struct{ spec DiurnalSpec }

func (a cycleDiurnal) draw(c int, t int64, w float64, rng *sim.RNG) bool {
	rate := a.spec.Mean * (1 + a.spec.Amp*math.Sin(2*math.Pi/a.spec.Period*float64(t)))
	if rate < 0 {
		rate = 0
	}
	return rng.Bernoulli(rate * w)
}

func newCycleArrival(spec ArrivalSpec, cores int, span int64) cycleArrival {
	switch s := spec.(type) {
	case BernoulliSpec:
		return cycleBernoulli{rate: s.Rate}
	case BurstSpec:
		return &cycleBurst{spec: s, st: make([]burstState, cores)}
	case FlashSpec:
		return cycleFlash{spec: s, span: span}
	case DiurnalSpec:
		return cycleDiurnal{spec: s}
	}
	panic(fmt.Sprintf("no cycle-loop oracle for %T", spec))
}

// cycleLoopTape records cycles of injections with the cycle-by-cycle loop.
func cycleLoopTape(w *Workload, pattern Pattern, nodes, coresPerNode int, seed uint64, cycles int64) []TapeEntry {
	cores := nodes * coresPerNode
	root := sim.NewRNG(seed)
	rngs := make([]sim.RNG, cores)
	for i := range rngs {
		rngs[i] = *root.Fork(uint64(i))
	}
	var weights []float64
	if w.Clients != nil {
		weights = w.Clients.Weights(cores, seed)
	}
	segEnd := w.Resolve(cycles)
	segStart := make([]int64, len(segEnd))
	arrivals := make([]cycleArrival, len(segEnd))
	at := int64(0)
	for i, end := range segEnd {
		segStart[i] = at
		arrivals[i] = newCycleArrival(w.Segments[i].Proc, cores, end-at)
		at = end
	}
	var entries []TapeEntry
	seg := 0
	for cyc := int64(0); cyc < cycles; cyc++ {
		for seg < len(segEnd)-1 && cyc >= segEnd[seg] {
			seg++
		}
		for c := range rngs {
			rng := &rngs[c]
			wt := 1.0
			if weights != nil {
				wt = weights[c]
			}
			if arrivals[seg].draw(c, cyc-segStart[seg], wt, rng) {
				entries = append(entries, TapeEntry{Cycle: cyc, Core: c, Dst: pattern.Dest(c/coresPerNode, nodes, rng)})
			}
		}
	}
	return entries
}

// diffTapes reports the first entry at which two tapes part.
func diffTapes(got, want []TapeEntry) error {
	for i := range want {
		if i >= len(got) {
			return fmt.Errorf("%d entries, want %d (first missing %+v)", len(got), len(want), want[i])
		}
		if got[i] != want[i] {
			return fmt.Errorf("entry %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) > len(want) {
		return fmt.Errorf("%d entries, want %d (first extra %+v)", len(got), len(want), got[len(want)])
	}
	return nil
}

// TestBlockGeneratorMatchesCycleLoop: drawing a block of cycles ahead, one
// core at a time, must yield exactly the tape the cycle-by-cycle loop
// yields — same entries, same order — whatever the arrival process, the
// schedule's segment ends, the client skew, the pattern's own draws, and
// the geometry.
func TestBlockGeneratorMatchesCycleLoop(t *testing.T) {
	b := func(rate float64) ArrivalSpec { return BernoulliSpec{Rate: rate} }
	type tc struct {
		name                string
		w                   *Workload
		pattern             Pattern
		nodes, coresPerNode int
		cycles              int64
		mayBeEmpty          bool
	}
	cases := []tc{
		{name: "legacy", w: Bernoulli(0.17), pattern: UniformRandom{}, nodes: 16, coresPerNode: 2, cycles: 1000},
		{name: "rate-0", w: Bernoulli(0), pattern: UniformRandom{}, nodes: 16, coresPerNode: 2, cycles: 300, mayBeEmpty: true},
		{name: "rate-1", w: Bernoulli(1), pattern: UniformRandom{}, nodes: 16, coresPerNode: 2, cycles: 300},
		{name: "hotspot", w: Bernoulli(0.2), pattern: Hotspot{Hot: 3, Fraction: 0.3}, nodes: 16, coresPerNode: 2, cycles: 700},
		{name: "two-nodes", w: Bernoulli(0.4), pattern: UniformRandom{}, nodes: 2, coresPerNode: 1, cycles: 500},
		{name: "1024-cores", w: Bernoulli(0.03), pattern: UniformRandom{}, nodes: 256, coresPerNode: 4, cycles: 200},
		// 30 cores: seven groups of four through the lane kernel, then two
		// through the per-core loop; the hotspot draws its destination
		// with a Bernoulli and an Intn on the hitting lane's stream.
		{name: "lanes-and-tail", w: Bernoulli(0.2), pattern: Hotspot{Hot: 2, Fraction: 0.25}, nodes: 10, coresPerNode: 3, cycles: 700},
		{name: "short-of-a-block", w: MustParseWorkload("burst(rate=0.5,on=8,off=8)"), pattern: Tornado{}, nodes: 16, coresPerNode: 2, cycles: 37},
		// Segment ends at 100, 101 (a one-cycle segment), 164 (a whole
		// block exactly), 165+f: none but one on a block boundary, several
		// processes handing the same streams on.
		{name: "phased", w: &Workload{Segments: []Segment{
			{Cycles: 100, Proc: b(0.3)},
			{Cycles: 1, Proc: b(1)},
			{Cycles: 63, Proc: BurstSpec{Rate: 0.6, On: 5, Off: 9}},
			{Cycles: 1, Proc: FlashSpec{Base: 0.1, Peak: 0.9, At: 0, Width: 1}},
			{Frac: 0.37, Proc: DiurnalSpec{Mean: 0.2, Amp: 1, Period: 90}},
			{Frac: 0.21, Proc: FlashSpec{Base: 0.05, Peak: 0.7, At: 0.31, Width: 0.4}},
			{Frac: 0.42, Proc: BurstSpec{Rate: 1, On: 30, Off: 70}},
		}}, pattern: UniformRandom{}, nodes: 16, coresPerNode: 2, cycles: 1777},
		{name: "clients", w: MustParseWorkload("bernoulli(rate=0.2)|clients(n=5000,hot=0.6,cores=3)"), pattern: UniformRandom{}, nodes: 16, coresPerNode: 2, cycles: 600},
		{name: "burst-clients", w: MustParseWorkload("burst(rate=0.4,on=20,off=50)|clients(n=5000,hot=0.6,cores=3)"), pattern: UniformRandom{}, nodes: 16, coresPerNode: 2, cycles: 600},
	}
	for _, p := range PresetWorkloads() {
		cases = append(cases, tc{name: "preset-" + p.Name, w: MustParseWorkload(p.Spec), pattern: UniformRandom{}, nodes: 64, coresPerNode: 4, cycles: 5000})
	}
	for _, c := range cases {
		for _, seed := range []uint64{1, 99} {
			tape, err := RecordWorkloadTape(c.w, c.pattern, c.nodes, c.coresPerNode, seed, c.cycles)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want := cycleLoopTape(c.w, c.pattern, c.nodes, c.coresPerNode, seed, c.cycles)
			if len(want) == 0 && !c.mayBeEmpty {
				t.Fatalf("%s: the cycle loop drew nothing; the case is vacuous", c.name)
			}
			if err := diffTapes(tape.Entries, want); err != nil {
				t.Errorf("%s seed %d: block generator diverged from the cycle loop: %v", c.name, seed, err)
			}
		}
	}
}

// TestStopMidBlock: Stop discards whatever the current block drew beyond
// it — the ticks before it emit the cycle loop's entries, the ticks after
// it nothing.
func TestStopMidBlock(t *testing.T) {
	const stopAt, cycles = 100, 300 // 100 = block 1, offset 36
	w := MustParseWorkload(PresetWorkloads()[0].Spec)
	in, err := NewWorkloadInjector(w, UniformRandom{}, 16, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	in.Prepare(cycles)
	var got []TapeEntry
	for cyc := int64(0); cyc < cycles; cyc++ {
		if cyc == stopAt {
			in.Stop()
		}
		in.tick(nil, func(c, dst int) { got = append(got, TapeEntry{Cycle: cyc, Core: c, Dst: dst}) })
	}
	var want []TapeEntry
	for _, e := range cycleLoopTape(w, UniformRandom{}, 16, 2, 5, cycles) {
		if e.Cycle < stopAt {
			want = append(want, e)
		}
	}
	if len(want) == 0 {
		t.Fatal("nothing drawn before the stop; the test is vacuous")
	}
	if err := diffTapes(got, want); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGenerate times the injection generator alone — no network, a
// no-op emit — per core-cycle, so the number compares across ring sizes:
// the paper's Bernoulli source at a low load, where nearly every draw
// misses, and the bursty preset, where three quarters of the cores sit in
// an OFF regime, on the 64x4 and the 256x4 geometry.
func BenchmarkGenerate(b *testing.B) {
	specs := []struct{ name, spec string }{
		{"bernoulli0.05", "bernoulli(rate=0.05)"},
		{"bursty", PresetWorkloads()[0].Spec},
	}
	for _, s := range specs {
		for _, nodes := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/cores=%d", s.name, nodes*4), func(b *testing.B) {
				in, err := NewWorkloadInjector(MustParseWorkload(s.spec), UniformRandom{}, nodes, 4, 1)
				if err != nil {
					b.Fatal(err)
				}
				in.Prepare(int64(b.N))
				arrivals := 0
				emit := func(c, dst int) { arrivals++ }
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in.generate(emit)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes*4), "ns/core-cycle")
				b.ReportMetric(float64(arrivals)/float64(b.N), "arrivals/cycle")
			})
		}
	}
}
