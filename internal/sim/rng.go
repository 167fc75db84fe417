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

import "math"

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
// a seed. exp.Replicate uses this to guarantee that replications quoted in
// EXPERIMENTS.md cite genuinely independent, reproducible seeds.
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
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

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
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
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
