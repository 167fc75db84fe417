package main

import (
	"math"
	"time"
)

// The box this benchmark runs on is a small virtual machine on a shared
// host. Its arithmetic speed is steady, but how fast it reaches memory is
// not: neighbours fill the shared last-level cache and the memory
// controllers, and the simulator — pointer-heavy and allocating a few
// kilobytes per simulated cycle — slows by 20-60% for seconds or minutes at
// a time (a pure ALU loop timed alongside moves by 2%). No estimator over
// the samples of one run removes that, because the whole run sits inside
// the slow spell.
//
// So the harness measures the host alongside the program: between ops it
// times a fixed chain of dependent loads through a 4 MiB ring — too large
// for a core's private caches, small enough to sit in the shared one when
// the host is quiet — and expresses each op's wall time at a nominal load
// latency: wall * (nominalLoadNs / measured)^hostSensitivity. The `_norm`
// metrics and setup_s are built from those times; the raw ones are printed
// beside them with host_load_ns, the latency the run actually saw.
const (
	calEntries = 1 << 20 // uint32 each: 4 MiB
	calSteps   = 200_000 // 10-15 ms a sample
	// nominalLoadNs is the load latency the normalised times are expressed
	// at, picked inside the range this box showed while the benchmark was
	// sized (45-80 ns). It is a unit, not a measurement: changing it
	// rescales every normalised metric.
	nominalLoadNs = 60.0
	// hostSensitivity is how the simulator's time follows the probe's: part
	// of an op is arithmetic, which the neighbours do not slow, so its time
	// moves less than the probe's. Fitted over ten runs of each workload in
	// a noisy hour (log time against log latency): 0.53 on ur-low to 1.0 on
	// bursty-slo, and one value serves all six — at 0.7 the quartile
	// distance of sim_cycles_per_s over the ten runs fell from 7-19% of the
	// median to 3-9%, where 1.0 over-corrects the arithmetic-heavy workloads
	// (cmp-closed: 14%). It belongs to the yardstick: a change to it is a
	// change to the benchmark, and re-baselines every normalised metric.
	hostSensitivity = 0.7
)

// calRing is one cycle through all calEntries slots in a fixed
// pseudo-random order (Sattolo's shuffle on a fixed xorshift stream), so
// every load depends on the one before and no prefetcher can follow it.
var calRing = func() []uint32 {
	a := make([]uint32, calEntries)
	for i := range a {
		a[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(a) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int(x % uint64(i))
		a[i], a[k] = a[k], a[i]
	}
	return a
}()

var calPos uint32

// hostLoadNs times calSteps dependent loads and returns nanoseconds per
// load. Successive samples continue along the ring, so none re-walks lines
// the one before left in the private caches.
func hostLoadNs() float64 {
	p := calPos
	t0 := time.Now()
	for i := 0; i < calSteps; i++ {
		p = calRing[p]
	}
	d := time.Since(t0)
	calPos = p
	return float64(d.Nanoseconds()) / calSteps
}

// normalised expresses a wall time at the nominal load latency, given the
// latency measured just before and just after it.
func normalised(wall time.Duration, before, after float64) float64 {
	return wall.Seconds() * math.Pow(nominalLoadNs/((before+after)/2), hostSensitivity)
}
