package traffic

import (
	"fmt"
	"math"

	"photon/internal/sim"
)

// This file is the arrival layer of the Workload subsystem: the paper's
// single fixed-rate Bernoulli injector, generalised into pluggable
// open-loop arrival processes composed into phased schedules (see
// DESIGN.md "Workload layer"). The layering:
//
//	ArrivalSpec — immutable, validated description of one arrival
//	              process (parsed from the workload spec grammar);
//	Arrival     — that process instantiated for one run: per-core state,
//	              drawn a run of cycles at a time on the core's private
//	              RNG (Next);
//	Segment     — an ArrivalSpec plus a duration (fraction of the
//	              injection span, or absolute cycles);
//	Workload    — an ordered list of Segments plus an optional ClientMap
//	              skewing per-core rates by hashed client population.
//
// Digest-compatibility contract: on each core's private stream,
// BernoulliSpec instantiated with weight 1.0 consumes exactly one
// rng.Bernoulli(rate) per cycle, followed on a hit by that packet's
// Pattern.Dest draws — the sequence the pre-workload injector consumed —
// so every pinned quick-grid, chaos and golden digest reproduces
// unchanged through this layer (TestWorkloadBernoulliCompat pins it).
// Only the order of draws *within* a stream is observable: cores never
// share a stream and arrivals never look at the network, so the injector
// is free to run one core many cycles ahead before touching the next
// (Injector.refill), and the per-cycle loop every process is specified
// by survives as the oracle of TestBlockGeneratorMatchesCycleLoop. Next
// implementations must not allocate: the injection tick sits on the
// engine's zero-alloc hot path (TestGenerateZeroAlloc).

// Arrival is one instantiated arrival process. Next makes core c's draws
// for up to n consecutive cycles starting at offset t within the current
// schedule segment and returns how many of them passed without an
// arrival: a result i < n means c injects one packet at offset t+i (the
// caller draws its destination, then resumes at t+i+1), n means none of
// the cycles hit. w is the core's ClientMap weight (1 when the workload
// carries no client skew); n is at least 1. Draws use only c's private
// RNG stream, so results are insensitive to core iteration order.
type Arrival interface {
	Next(c int, t int64, n int, w float64, rng *sim.RNG) int
}

// firstHit makes up to n draws of rng.Bernoulli(p) and returns the index
// of the first success, or n. The uniform variate is an integer k < 2^53
// scaled by 2^-53, both exact, so k/2^53 < p is the integer comparison
// k < ceil(p*2^53); as in Bernoulli, p <= 0 and p >= 1 consume no draw.
func firstHit(p float64, n int, rng *sim.RNG) int {
	if p <= 0 {
		return n
	}
	if p >= 1 {
		return 0
	}
	below := uint64(math.Ceil(p * (1 << 53)))
	for i := 0; i < n; i++ {
		if rng.Uint64()>>11 < below {
			return i
		}
	}
	return n
}

// ArrivalSpec is the immutable description of an arrival process. A spec
// is shared freely (workloads are parsed once and reused across runs);
// all mutable per-run state lives in the Arrival returned by New.
type ArrivalSpec interface {
	// Kind is the process name in the spec grammar.
	Kind() string
	// MeanRate is the expected long-run injection rate in
	// packets/cycle/core (the value the binomial-tolerance property test
	// checks realized schedules against).
	MeanRate() float64
	// Validate rejects out-of-range parameters.
	Validate() error
	// New instantiates the process for one run segment: cores independent
	// state slots, span resolved segment length in cycles.
	New(cores int, span int64) Arrival
	// canonParams returns the canonical "k=v,..." parameter string; the
	// spec grammar round-trips through it (ParseWorkload ∘ String = id).
	canonParams() string
}

// maxDuration caps mean regime durations and periods so fuzzed specs
// cannot demand astronomically long schedules.
const maxDuration = 1e9

// BernoulliSpec is the paper's traffic model: every cycle, every core
// injects independently with probability Rate. It is the digest-identical
// default the legacy NewInjector routes through.
type BernoulliSpec struct {
	Rate float64
}

// Kind implements ArrivalSpec.
func (s BernoulliSpec) Kind() string { return "bernoulli" }

// MeanRate implements ArrivalSpec.
func (s BernoulliSpec) MeanRate() float64 { return s.Rate }

// Validate implements ArrivalSpec.
func (s BernoulliSpec) Validate() error {
	if math.IsNaN(s.Rate) || s.Rate < 0 || s.Rate > 1 {
		return fmt.Errorf("traffic: rate %g outside [0,1] packets/cycle/core", s.Rate)
	}
	return nil
}

func (s BernoulliSpec) canonParams() string { return fmt.Sprintf("rate=%g", s.Rate) }

// New implements ArrivalSpec.
func (s BernoulliSpec) New(cores int, span int64) Arrival { return bernoulliArrival{rate: s.Rate} }

type bernoulliArrival struct{ rate float64 }

func (a bernoulliArrival) Next(c int, t int64, n int, w float64, rng *sim.RNG) int {
	// w == 1 keeps rate*w bit-identical to rate (IEEE multiplication by
	// 1.0 is exact), preserving the pre-workload digest stream.
	return firstHit(a.rate*w, n, rng)
}

// BurstSpec is a two-state on/off (MMPP-2-style) source: each core
// alternates between an ON regime, where it injects Bernoulli(Rate), and
// a silent OFF regime. Regime durations are geometric with means On and
// Off cycles, drawn per core, so cores burst independently — the bursty
// cohort traffic under which admission fairness and handshake backpressure
// actually differentiate (cf. PAPERS.md, arXiv 1512.04106).
type BurstSpec struct {
	Rate float64 // injection probability while ON
	On   float64 // mean ON duration, cycles
	Off  float64 // mean OFF duration, cycles
}

// Kind implements ArrivalSpec.
func (s BurstSpec) Kind() string { return "burst" }

// MeanRate implements ArrivalSpec.
func (s BurstSpec) MeanRate() float64 { return s.Rate * s.On / (s.On + s.Off) }

// Validate implements ArrivalSpec.
func (s BurstSpec) Validate() error {
	if math.IsNaN(s.Rate) || s.Rate < 0 || s.Rate > 1 {
		return fmt.Errorf("traffic: burst rate %g outside [0,1]", s.Rate)
	}
	if math.IsNaN(s.On) || s.On < 1 || s.On > maxDuration {
		return fmt.Errorf("traffic: burst mean ON duration %g outside [1,%g]", s.On, float64(maxDuration))
	}
	if math.IsNaN(s.Off) || s.Off < 1 || s.Off > maxDuration {
		return fmt.Errorf("traffic: burst mean OFF duration %g outside [1,%g]", s.Off, float64(maxDuration))
	}
	return nil
}

func (s BurstSpec) canonParams() string {
	return fmt.Sprintf("rate=%g,on=%g,off=%g", s.Rate, s.On, s.Off)
}

// New implements ArrivalSpec.
func (s BurstSpec) New(cores int, span int64) Arrival {
	return &burstArrival{spec: s, st: make([]burstState, cores)}
}

type burstState struct {
	started bool
	on      bool
	left    int64
}

type burstArrival struct {
	spec BurstSpec
	st   []burstState
}

// regime draws a fresh regime duration (>= 1 cycle, geometric with the
// given mean).
func regime(mean float64, rng *sim.RNG) int64 {
	return 1 + rng.Geometric(1/mean)
}

func (a *burstArrival) Next(c int, t int64, n int, w float64, rng *sim.RNG) int {
	s := &a.st[c]
	if !s.started {
		// Start each core in a random regime weighted by the duty cycle,
		// so the source is stationary from cycle 0 (no synchronized
		// all-ON transient).
		s.started = true
		s.on = rng.Bernoulli(a.spec.On / (a.spec.On + a.spec.Off))
		if s.on {
			s.left = regime(a.spec.On, rng)
		} else {
			s.left = regime(a.spec.Off, rng)
		}
	}
	for i := 0; i < n; {
		// A spent regime is replaced when the next cycle is drawn, not
		// when its last one is: the draw belongs after that cycle's
		// destination draw, and not at all if the segment ends there.
		for s.left == 0 {
			s.on = !s.on
			if s.on {
				s.left = regime(a.spec.On, rng)
			} else {
				s.left = regime(a.spec.Off, rng)
			}
		}
		// OFF cycles draw nothing, so an OFF regime is stepped over whole.
		k := int(min(s.left, int64(n-i)))
		if s.on {
			if j := firstHit(a.spec.Rate*w, k, rng); j < k {
				s.left -= int64(j) + 1
				return i + j
			}
		}
		s.left -= int64(k)
		i += k
	}
	return n
}

// FlashSpec is a flash-crowd profile: Bernoulli at Base, spiking to Peak
// for the window [At, At+Width) expressed as fractions of the segment —
// the "everyone refreshes at once" shape of serving workloads.
type FlashSpec struct {
	Base  float64 // rate outside the spike
	Peak  float64 // rate inside the spike
	At    float64 // spike start, fraction of the segment
	Width float64 // spike width, fraction of the segment
}

// Kind implements ArrivalSpec.
func (s FlashSpec) Kind() string { return "flash" }

// MeanRate implements ArrivalSpec.
func (s FlashSpec) MeanRate() float64 {
	width := s.Width
	if s.At+width > 1 {
		width = 1 - s.At // the spike clips at the segment end
	}
	return s.Base + (s.Peak-s.Base)*width
}

// Validate implements ArrivalSpec.
func (s FlashSpec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"base", s.Base}, {"peak", s.Peak}, {"at", s.At}} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("traffic: flash %s %g outside [0,1]", p.name, p.v)
		}
	}
	if math.IsNaN(s.Width) || s.Width <= 0 || s.Width > 1 {
		return fmt.Errorf("traffic: flash width %g outside (0,1]", s.Width)
	}
	return nil
}

func (s FlashSpec) canonParams() string {
	return fmt.Sprintf("base=%g,peak=%g,at=%g,width=%g", s.Base, s.Peak, s.At, s.Width)
}

// New implements ArrivalSpec.
func (s FlashSpec) New(cores int, span int64) Arrival {
	from := int64(s.At * float64(span))
	to := int64((s.At + s.Width) * float64(span))
	return flashArrival{base: s.Base, peak: s.Peak, from: from, to: to}
}

type flashArrival struct {
	base, peak float64
	from, to   int64
}

func (a flashArrival) Next(c int, t int64, n int, w float64, rng *sim.RNG) int {
	// Up to three constant-rate stretches: before, inside, after the spike.
	for i := 0; i < n; {
		at, end, rate := t+int64(i), t+int64(n), a.base
		switch {
		case at < a.from:
			end = min(end, a.from)
		case at < a.to:
			end, rate = min(end, a.to), a.peak
		}
		k := int(end - at)
		if j := firstHit(rate*w, k, rng); j < k {
			return i + j
		}
		i += k
	}
	return n
}

// DiurnalSpec modulates a Bernoulli source sinusoidally around Mean with
// relative amplitude Amp and the given period in cycles — the compressed
// day/night demand curve of a serving fleet. The instantaneous rate is
// clamped to [0,1].
type DiurnalSpec struct {
	Mean   float64 // average rate
	Amp    float64 // relative amplitude in [0,1]
	Period float64 // cycles per full oscillation
}

// Kind implements ArrivalSpec.
func (s DiurnalSpec) Kind() string { return "diurnal" }

// MeanRate implements ArrivalSpec.
func (s DiurnalSpec) MeanRate() float64 { return s.Mean }

// Validate implements ArrivalSpec.
func (s DiurnalSpec) Validate() error {
	if math.IsNaN(s.Mean) || s.Mean < 0 || s.Mean > 1 {
		return fmt.Errorf("traffic: diurnal mean %g outside [0,1]", s.Mean)
	}
	if math.IsNaN(s.Amp) || s.Amp < 0 || s.Amp > 1 {
		return fmt.Errorf("traffic: diurnal amplitude %g outside [0,1]", s.Amp)
	}
	if math.IsNaN(s.Period) || s.Period < 2 || s.Period > maxDuration {
		return fmt.Errorf("traffic: diurnal period %g outside [2,%g]", s.Period, float64(maxDuration))
	}
	if s.Mean*(1+s.Amp) > 1 {
		return fmt.Errorf("traffic: diurnal peak rate %g exceeds 1 (mean %g, amp %g)", s.Mean*(1+s.Amp), s.Mean, s.Amp)
	}
	return nil
}

func (s DiurnalSpec) canonParams() string {
	return fmt.Sprintf("mean=%g,amp=%g,period=%g", s.Mean, s.Amp, s.Period)
}

// New implements ArrivalSpec.
func (s DiurnalSpec) New(cores int, span int64) Arrival {
	return diurnalArrival{mean: s.Mean, amp: s.Amp, omega: 2 * math.Pi / s.Period}
}

type diurnalArrival struct {
	mean, amp, omega float64
}

func (a diurnalArrival) Next(c int, t int64, n int, w float64, rng *sim.RNG) int {
	for i := 0; i < n; i++ {
		rate := a.mean * (1 + a.amp*math.Sin(a.omega*float64(t+int64(i))))
		if rate < 0 {
			rate = 0
		}
		if rng.Bernoulli(rate * w) {
			return i
		}
	}
	return n
}

// Segment is one phase of a schedule: an arrival process active for a
// duration given either as a fraction of the injection span (Frac > 0) or
// as absolute cycles (Cycles > 0). Exactly one of the two is set; a
// single-segment workload conventionally uses Frac = 1.
type Segment struct {
	Frac   float64
	Cycles int64
	Proc   ArrivalSpec
}

// validate rejects malformed segment durations and processes.
func (s Segment) validate() error {
	switch {
	case s.Proc == nil:
		return fmt.Errorf("traffic: segment with nil arrival process")
	case s.Frac > 0 && s.Cycles > 0:
		return fmt.Errorf("traffic: segment sets both fraction %g and cycles %d", s.Frac, s.Cycles)
	case s.Frac == 0 && s.Cycles == 0:
		return fmt.Errorf("traffic: segment with no duration")
	case s.Frac != 0 && (math.IsNaN(s.Frac) || s.Frac < 0 || s.Frac > 1):
		return fmt.Errorf("traffic: segment fraction %g outside (0,1]", s.Frac)
	case s.Cycles < 0 || s.Cycles > int64(maxDuration):
		return fmt.Errorf("traffic: segment cycles %d outside [1,%g]", s.Cycles, float64(maxDuration))
	}
	return s.Proc.Validate()
}

// maxSegments bounds a schedule's phase count (fuzz guard).
const maxSegments = 64

// Workload is a complete traffic description: a phased schedule of
// arrival processes plus an optional client population skewing per-core
// rates. The zero-config equivalent of the legacy injector is a single
// full-span Bernoulli segment and a nil ClientMap.
type Workload struct {
	Segments []Segment
	Clients  *ClientMap
}

// Bernoulli returns the workload equivalent of the legacy fixed-rate
// injector: one full-span Bernoulli segment, no client skew.
func Bernoulli(rate float64) *Workload {
	return &Workload{Segments: []Segment{{Frac: 1, Proc: BernoulliSpec{Rate: rate}}}}
}

// Validate rejects malformed workloads.
func (w *Workload) Validate() error {
	if len(w.Segments) == 0 {
		return fmt.Errorf("traffic: workload with no segments")
	}
	if len(w.Segments) > maxSegments {
		return fmt.Errorf("traffic: workload with %d segments (max %d)", len(w.Segments), maxSegments)
	}
	for i, s := range w.Segments {
		if err := s.validate(); err != nil {
			return fmt.Errorf("segment %d: %w", i+1, err)
		}
	}
	if w.Clients != nil {
		if err := w.Clients.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MeanRate returns the schedule's expected packets/cycle/core over an
// injection span of the given length (segment means weighted by resolved
// segment lengths). The ClientMap preserves the mean by construction
// (weights average 1) except where skewed per-core rates clamp at 1.
func (w *Workload) MeanRate(span int64) float64 {
	if span <= 0 {
		return 0
	}
	bounds := w.Resolve(span)
	var sum float64
	from := int64(0)
	for i, to := range bounds {
		sum += float64(to-from) * w.Segments[i].Proc.MeanRate()
		from = to
	}
	return sum / float64(span)
}

// Resolve maps the schedule onto an injection span of the given length,
// returning the exclusive end cycle of each segment (the last entry is
// always span). Fixed-cycle segments claim their cycles in order, clamped
// to what remains; fractional segments share the span left after all
// fixed claims, proportionally to their fractions; the final segment
// absorbs any rounding remainder. The mapping is total — any schedule
// resolves against any span, degenerate segments simply get zero cycles —
// so replaying a workload against a shorter window cannot fail, only
// truncate.
func (w *Workload) Resolve(span int64) []int64 {
	if span < 0 {
		span = 0
	}
	var fixed int64
	var fracSum float64
	for _, s := range w.Segments {
		fixed += s.Cycles
		fracSum += s.Frac
	}
	pool := span - fixed
	if pool < 0 {
		pool = 0
	}
	bounds := make([]int64, len(w.Segments))
	at := int64(0)
	for i, s := range w.Segments {
		var length int64
		if s.Cycles > 0 {
			length = s.Cycles
		} else if fracSum > 0 {
			length = int64(s.Frac / fracSum * float64(pool))
		}
		at += length
		if at > span {
			at = span
		}
		bounds[i] = at
	}
	bounds[len(bounds)-1] = span
	return bounds
}

// String renders the workload in the canonical spec grammar; see
// ParseWorkload. ParseWorkload(w.String()) reproduces w exactly
// (TestWorkloadSpecRoundTrip and FuzzWorkloadSpec pin the round trip).
func (w *Workload) String() string {
	var b []byte
	for i, s := range w.Segments {
		if i > 0 {
			b = append(b, ';')
		}
		if s.Cycles > 0 {
			b = append(b, fmt.Sprintf("%dc@", s.Cycles)...)
		} else if !(len(w.Segments) == 1 && s.Frac == 1) {
			b = append(b, fmt.Sprintf("%g@", s.Frac)...)
		}
		b = append(b, s.Proc.Kind()...)
		b = append(b, '(')
		b = append(b, s.Proc.canonParams()...)
		b = append(b, ')')
	}
	if w.Clients != nil {
		b = append(b, '|')
		b = append(b, w.Clients.String()...)
	}
	return string(b)
}
