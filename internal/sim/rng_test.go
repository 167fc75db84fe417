package sim

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws out of 100", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded RNG repeated values: %d unique of 100", len(seen))
	}
}

func TestForkIndependence(t *testing.T) {
	root := NewRNG(7)
	f1 := root.Fork(1)
	f2 := root.Fork(2)
	// Forking must not disturb the parent stream.
	ref := NewRNG(7)
	ref.Fork(1)
	ref.Fork(2)
	for i := 0; i < 100; i++ {
		if root.Uint64() != ref.Uint64() {
			t.Fatalf("forking disturbed the parent stream at draw %d", i)
		}
	}
	// Forked streams must differ from each other.
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d/100 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 4*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want about 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(13)
	const p, draws = 0.11, 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.005 {
		t.Errorf("Bernoulli(%.2f) hit rate %.4f", p, got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(17)
	const p, draws = 0.1, 50000
	var sum int64
	for i := 0; i < draws; i++ {
		sum += r.Geometric(p)
	}
	got := float64(sum) / draws
	want := (1 - p) / p // mean failures before first success
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("Geometric(%.2f) mean %.2f, want about %.2f", p, got, want)
	}
}

func TestGeometricEdges(t *testing.T) {
	r := NewRNG(19)
	if got := r.Geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(29)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// longMul64 is the 32-bit long multiplication Intn used before it called
// bits.Mul64: the reference the intrinsic is pinned against.
func longMul64(a, b uint64) (hi, lo uint64) {
	a0, a1 := a&0xFFFFFFFF, a>>32
	b0, b1 := b&0xFFFFFFFF, b>>32
	carryLo := a0 * b0
	mid1 := a1*b0 + carryLo>>32
	mid2 := a0*b1 + mid1&0xFFFFFFFF
	return a1*b1 + mid1>>32 + mid2>>32, a * b
}

func TestMul64MatchesBig(t *testing.T) {
	// Intn's 128-bit multiply is the bits.Mul64 intrinsic; it must return
	// the same (hi, lo) as long multiplication on random and edge inputs.
	same := func(a, b uint64) bool {
		hi, lo := bits.Mul64(a, b)
		wantHi, wantLo := longMul64(a, b)
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(same, nil); err != nil {
		t.Fatal(err)
	}
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for _, a := range edges {
		for _, b := range edges {
			if !same(a, b) {
				t.Fatalf("bits.Mul64(%#x, %#x) differs from long multiplication", a, b)
			}
		}
	}
}

// TestIntnMatchesLongMultiplication replays Lemire's method with the
// long-multiplication product and requires Intn to draw the same values,
// for random bounds and the edge bounds (1, powers of two and their
// neighbours, the largest int).
func TestIntnMatchesLongMultiplication(t *testing.T) {
	ref := func(r *RNG, n int) int {
		bound := uint64(n)
		for {
			hi, lo := longMul64(r.Uint64(), bound)
			if lo >= bound || lo >= (-bound)%bound {
				return int(hi)
			}
		}
	}
	bounds := []int{1, 2, 3, 63, 64, 65, 255, 256, 1000, 1<<31 - 1, int(^uint(0) >> 1)}
	pick := NewRNG(5)
	for i := 0; i < 64; i++ {
		bounds = append(bounds, 1+int(pick.Uint64()>>40))
	}
	for _, n := range bounds {
		a, b := NewRNG(uint64(n)), NewRNG(uint64(n))
		for i := 0; i < 200; i++ {
			if got, want := a.Intn(n), ref(b, n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, long multiplication gives %d", n, i, got, want)
			}
		}
	}
}

// TestBernoulliLanesMatchesSerial: the four-lane kernel must make, on each
// generator, the draws consecutive Bernoulli calls make, interleaved with
// whatever a hit draws from its lane, and report hits in (trial, lane)
// order.
func TestBernoulliLanesMatchesSerial(t *testing.T) {
	type hit struct{ lane, i, extra int }
	for _, p := range []float64{1e-9, 0.01, 0.05, 0.3, 0.5, 0.97, 1 - 1e-12} {
		for seed := uint64(1); seed <= 4; seed++ {
			const n = 500
			var lanes, serial [4]RNG
			for l := range lanes {
				lanes[l] = *NewRNG(seed*10 + uint64(l))
				serial[l] = lanes[l]
			}
			var got []hit
			BernoulliLanes(&lanes, p, n, func(lane, i int) {
				got = append(got, hit{lane, i, lanes[lane].Intn(1 + lane*7)})
			})
			var want []hit
			for i := 0; i < n; i++ {
				for l := range serial {
					if serial[l].Bernoulli(p) {
						want = append(want, hit{l, i, serial[l].Intn(1 + l*7)})
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("p %g seed %d: %d hits, serial loop %d (first lane hits %v vs %v)", p, seed, len(got), len(want), got[:min(len(got), 4)], want[:min(len(want), 4)])
			}
			if lanes != serial {
				t.Fatalf("p %g seed %d: generator states differ after the kernel", p, seed)
			}
		}
	}
}
