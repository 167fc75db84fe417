// Package sim provides the small deterministic building blocks shared by
// every part of the cycle-accurate nanophotonic network simulator: a
// reproducible random number generator, fixed-delay lines that model optical
// flight time, bounded FIFO queues, and measurement windows.
//
// Everything in this package is single-goroutine by design. The simulator
// advances in lock-step cycles; parallelism, where used, is across
// independent simulation instances (one goroutine per sweep point), never
// inside one network, so none of these types carry locks.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a fast deterministic pseudo-random number generator built on
// xorshift64* with splitmix64 seeding. Identical seeds always produce
// identical streams on every platform, which the repeatability tests rely
// on. The zero value is not usable; construct with NewRNG.
type RNG struct {
	state uint64
}

// splitmix64 is used both to condition seeds and to derive independent
// streams. It is a bijection on uint64 with excellent avalanche behaviour.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewRNG returns a generator seeded from seed. Any seed, including zero, is
// valid: seeds are conditioned through splitmix64 so that nearby seeds give
// uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	s := splitmix64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15 // xorshift state must be non-zero
	}
	return &RNG{state: s}
}

// DeriveSeed deterministically derives the stream-th child seed of base.
// For a fixed base the map stream -> seed is injective: streams are spread
// by an odd multiplier (a bijection mod 2^64) before conditioning through
// splitmix64 (also a bijection), so no two streams of one base ever share
// a seed. The fault injector's per-element streams derive through it, as
// do the replications behind EXPERIMENTS.md's seed-robustness statement
// (exp's TestReplicateStability).
func DeriveSeed(base, stream uint64) uint64 {
	return splitmix64(splitmix64(base) + stream*0x9E3779B97F4A7C15)
}

// Fork derives an independent generator from r and a stream label. Forking
// does not disturb r's own sequence, so components can be given private
// streams (one per node, one per channel, ...) without cross-coupling.
func (r *RNG) Fork(stream uint64) *RNG {
	return NewRNG(splitmix64(r.state) ^ splitmix64(stream*0xA24BAED4963EE407+1))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state = xorshift(r.state)
	return r.state * xorshiftMul
}

// xorshift is one step of the xorshift64 state sequence; xorshiftMul is
// the xorshift64* output multiplier.
func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

const xorshiftMul = 0x2545F4914F6CDD1D

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success. Used by
// bursty (on/off) traffic sources. Returns 0 for p >= 1; panics for p <= 0.
func (r *RNG) Geometric(p float64) int64 {
	if p <= 0 {
		panic("sim: Geometric with non-positive p")
	}
	if p >= 1 {
		return 0
	}
	u := r.Float64()
	// Avoid log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int64(math.Log(u) / math.Log(1-p))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// BernoulliLanes runs n Bernoulli(p) trials on each of the four generators
// of r side by side, for 0 < p < 1, and calls hit(lane, i) for every
// success, at trial i of generator r[lane], in ascending (i, lane) order.
// Each generator makes exactly the draws n consecutive Bernoulli(p) calls
// would — one Uint64 per trial — and hit may draw from r[lane] itself (a
// destination, say): the lane's state is stored before the call and
// reloaded after, so every stream is consumed in the order a
// one-generator-at-a-time loop would consume it. The four xorshift chains
// are independent, so advancing them together overlaps their serial
// dependencies; that is the whole point of the kernel.
func BernoulliLanes(r *[4]RNG, p float64, n int, hit func(lane, i int)) {
	// Bernoulli's test Float64() < p is k/2^53 < p for the top 53 bits k;
	// both sides are exact, so it is the integer test k < ceil(p*2^53).
	below := uint64(math.Ceil(p * (1 << 53)))
	s0, s1, s2, s3 := r[0].state, r[1].state, r[2].state, r[3].state
	for i := 0; i < n; i++ {
		s0, s1, s2, s3 = xorshift(s0), xorshift(s1), xorshift(s2), xorshift(s3)
		h0 := (s0*xorshiftMul)>>11 < below
		h1 := (s1*xorshiftMul)>>11 < below
		h2 := (s2*xorshiftMul)>>11 < below
		h3 := (s3*xorshiftMul)>>11 < below
		if !(h0 || h1 || h2 || h3) {
			continue
		}
		r[0].state, r[1].state, r[2].state, r[3].state = s0, s1, s2, s3
		if h0 {
			hit(0, i)
		}
		if h1 {
			hit(1, i)
		}
		if h2 {
			hit(2, i)
		}
		if h3 {
			hit(3, i)
		}
		s0, s1, s2, s3 = r[0].state, r[1].state, r[2].state, r[3].state
	}
	r[0].state, r[1].state, r[2].state, r[3].state = s0, s1, s2, s3
}
