// Package stats provides the measurement plumbing shared by the simulator
// and the experiment harness: integer histograms for cycle-valued
// quantities, running mean/variance accumulators, and plain-text/CSV table
// rendering for the figure and table reproductions.
package stats

// Histogram counts occurrences of non-negative integer values (packet
// latencies in cycles, queue depths, ...). Values are binned exactly up to
// a cap; anything above the cap gets no bin but still contributes to
// Count/Sum/Max, so means stay exact even when the tail is clipped.
type Histogram struct {
	// chunks holds the exact bins, value v at chunks[v>>chunkBits][v&chunkMask].
	// A chunk is made the first time a value lands in it and is never
	// copied; a nil chunk counts nothing.
	chunks   []*chunk
	count    int64
	sum      int64
	max      int64
	capValue int64
}

// chunkBits sets a chunk's length: 64 bins of 8 bytes are 512 bytes, one
// of the runtime's size classes (a chunk holds no pointers, so it carries
// no allocation header). Longer chunks cost the many short-tailed
// histograms more than they save the long-tailed ones.
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

type chunk [chunkLen]int64

// NewHistogram returns a histogram with exact bins for values in
// [0, capValue]; larger values are pooled. capValue <= 0 selects a default
// suited to packet latencies (65535 cycles).
func NewHistogram(capValue int64) *Histogram {
	if capValue <= 0 {
		capValue = 1<<16 - 1
	}
	return &Histogram{capValue: capValue}
}

// Add records one observation. Negative values panic: cycle-valued metrics
// are non-negative by construction, so a negative observation is a
// timestamping bug.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		panic("stats: negative histogram value")
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v > h.capValue {
		return
	}
	if c := v >> chunkBits; c < int64(len(h.chunks)) && h.chunks[c] != nil {
		h.chunks[c][v&chunkMask]++
		return
	}
	h.grow(v)
}

// grow makes the chunk v lands in, then counts v. Kept out of Add, so the
// common case — a value in a chunk already made — stays a load, a test and
// an increment.
func (h *Histogram) grow(v int64) {
	c := int(v >> chunkBits)
	for len(h.chunks) <= c {
		h.chunks = append(h.chunks, nil)
	}
	if h.chunks[c] == nil {
		h.chunks[c] = new(chunk)
	}
	h.chunks[c][v&chunkMask]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the smallest value v such that at least q of the
// observations are <= v. Observations above the cap are treated as
// capValue+1, so quantiles that fall into the clipped tail are
// reported as capValue+1 (a lower bound). q outside (0,1] is clamped.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(h.count) + 0.999999)
	if target > h.count {
		target = h.count
	}
	if target < 1 {
		target = 1
	}
	var seen int64
	for c, bins := range h.chunks {
		if bins == nil {
			continue
		}
		for i, n := range bins {
			seen += n
			if seen >= target {
				return int64(c)<<chunkBits | int64(i)
			}
		}
	}
	return h.capValue + 1
}

// P50 returns the median observation — sugar for Quantile(0.5).
func (h *Histogram) P50() int64 { return h.Quantile(0.5) }

// P99 returns the 99th-percentile observation — sugar for Quantile(0.99).
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// P999 returns the 99.9th-percentile observation — the deep-tail SLO
// quantile of the workload reports; sugar for Quantile(0.999).
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// MeanVar accumulates a running mean and variance (Welford's algorithm)
// for float-valued series such as per-node throughputs.
type MeanVar struct {
	n    int64
	mean float64
	m2   float64
}

// Add records one observation.
func (m *MeanVar) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the running mean.
func (m *MeanVar) Mean() float64 { return m.mean }

// Var returns the (population) variance.
func (m *MeanVar) Var() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}
