package traffic

import (
	"fmt"
	"math"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/sim"
)

// Injector drives a network with an open-loop Workload: every cycle, the
// active schedule segment's arrival process decides which cores inject,
// and each drawn packet's destination comes from the Pattern. The legacy
// constructor wraps a fixed-rate Bernoulli workload — the paper's traffic
// model — and is bit-identical to the pre-workload injector
// (TestWorkloadBernoulliCompat).
//
// Each core owns a private RNG stream so results are reproducible and
// insensitive to core iteration order. That, and the loop being open
// (arrivals never look at the network), is what lets the draws be made a
// block of cycles ahead, one core at a time (refill): nothing can observe
// when a core's stream was advanced, only what it yielded.
type Injector struct {
	pattern      Pattern
	workload     *Workload
	nodes        int
	coresPerNode int
	rngs         []sim.RNG
	// weights is the resolved per-core ClientMap skew (nil = uniform; the
	// nil fast path keeps the legacy Bernoulli stream bit-identical).
	weights []float64
	stopped bool

	// Schedule state, resolved by Prepare against the injection span.
	bound    bool
	span     int64
	cursor   int64 // next injection cycle, 0-based
	seg      int   // active segment index
	segStart []int64
	segEnd   []int64
	arrivals []Arrival

	// The drawn-ahead block: buckets[i] holds the injections of cycle
	// blockStart+i in ascending core order, for cycles up to blockEnd.
	// Prepare allocates the blockLen buckets.
	blockStart int64
	blockEnd   int64
	buckets    [][]arrival
}

// blockLen is how many cycles refill draws ahead per core: long enough
// that the per-core set-up is noise against the draws themselves, short
// enough that the buckets stay in cache.
const blockLen = 64

// arrival is one drawn injection waiting in its cycle's bucket.
type arrival struct{ core, dst int32 }

// NewInjector builds the legacy fixed-rate Bernoulli injector for the
// given pattern and per-core rate — a single full-span Bernoulli segment
// routed through the Workload layer. All parameters are validated so that
// malformed sweep points fail fast with an error here instead of
// panicking mid-run (the caps mirror core.Config.Validate's structural
// limits).
func NewInjector(pattern Pattern, rate float64, nodes, coresPerNode int, seed uint64) (*Injector, error) {
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		return nil, fmt.Errorf("traffic: rate %g outside [0,1] packets/cycle/core", rate)
	}
	return NewWorkloadInjector(Bernoulli(rate), pattern, nodes, coresPerNode, seed)
}

// NewWorkloadInjector builds an injector driving the given workload's
// phased schedule. The workload is not mutated and may be shared across
// injectors; all per-run state (arrival regimes, schedule cursor) lives
// in the injector.
func NewWorkloadInjector(w *Workload, pattern Pattern, nodes, coresPerNode int, seed uint64) (*Injector, error) {
	if w == nil {
		return nil, fmt.Errorf("traffic: nil workload")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if pattern == nil {
		return nil, fmt.Errorf("traffic: nil pattern")
	}
	// Two nodes minimum, matching ring.NewGeometry: patterns that exclude
	// self-traffic (UR) have no destination to draw on a one-node ring.
	if nodes < 2 || nodes > core.MaxNodes {
		return nil, fmt.Errorf("traffic: node count %d outside [2, %d]", nodes, core.MaxNodes)
	}
	if coresPerNode < 1 || coresPerNode > core.MaxCoresPerNode {
		return nil, fmt.Errorf("traffic: cores per node %d outside [1, %d]", coresPerNode, core.MaxCoresPerNode)
	}
	cores := nodes * coresPerNode
	root := sim.NewRNG(seed)
	rngs := make([]sim.RNG, cores)
	for i := range rngs {
		rngs[i] = *root.Fork(uint64(i))
	}
	in := &Injector{
		pattern:      pattern,
		workload:     w,
		nodes:        nodes,
		coresPerNode: coresPerNode,
		rngs:         rngs,
	}
	if w.Clients != nil {
		in.weights = w.Clients.Weights(cores, seed)
	}
	return in, nil
}

// Workload returns the injector's workload description.
func (in *Injector) Workload() *Workload { return in.workload }

// Rate returns the workload's expected mean injection rate in
// packets/cycle/core: the configured rate for the legacy Bernoulli
// injector, the span-weighted schedule mean otherwise. Before the
// schedule is bound to a span, fractional segments are weighted by their
// fractions alone.
func (in *Injector) Rate() float64 {
	span := in.span
	if !in.bound {
		span = 1 << 20 // nominal span: fixed-cycle segments are tiny against it
	}
	return in.workload.MeanRate(span)
}

// Stop halts further injection (used during the drain phase).
func (in *Injector) Stop() { in.stopped = true }

// Prepare resolves the phased schedule against an injection span of the
// given length (cycles of Tick the run will perform) and instantiates
// per-segment arrival state. Run, Tick and tape recording call it
// automatically; call it directly only to read Boundaries before
// driving the network manually. Preparing an already-bound injector is a
// no-op, so a Run after an explicit Prepare keeps the resolved schedule.
func (in *Injector) Prepare(span int64) {
	if in.bound {
		return
	}
	in.bound = true
	in.span = span
	in.segEnd = in.workload.Resolve(span)
	in.segStart = make([]int64, len(in.segEnd))
	in.arrivals = make([]Arrival, len(in.segEnd))
	at := int64(0)
	for i, end := range in.segEnd {
		in.segStart[i] = at
		in.arrivals[i] = in.workload.Segments[i].Proc.New(len(in.rngs), end-at)
		at = end
	}
	// One backing array for the buckets, each sized past a cycle's mean
	// arrival count so that append only ever grows one for an outlier.
	per := int(1.5*in.Rate()*float64(len(in.rngs))) + 8
	backing := make([]arrival, blockLen*per)
	in.buckets = make([][]arrival, blockLen)
	for i := range in.buckets {
		in.buckets[i] = backing[i*per : i*per : (i+1)*per]
	}
}

// Boundaries returns the resolved exclusive end cycle of each schedule
// segment (the conservation battery audits the network at each). Valid
// after Prepare.
func (in *Injector) Boundaries() []int64 {
	if !in.bound {
		return nil
	}
	return in.segEnd
}

// Tick performs one cycle of injections into net. Call it immediately
// before net.Step(). The first Tick binds the schedule to the network's
// injection span (warmup+measure).
func (in *Injector) Tick(net *core.Network) {
	in.tick(net, func(c, dst int) {
		net.Inject(c, dst, router.ClassData, 0)
	})
}

// tick is Tick with the injection left to the caller.
func (in *Injector) tick(net *core.Network, emit func(core, dst int)) {
	if in.stopped {
		return
	}
	if !in.bound {
		w := net.Window()
		in.Prepare(w.Warmup + w.Measure)
	}
	in.generate(emit)
}

// generate hands one cycle's (core, dst) injections to emit, in ascending
// core order. It is the single source of injection randomness, shared by
// Tick and by tape recording (tape.go), so a recorded tape is
// bit-identical to what the live injector would have produced. It is
// allocation-free in steady state (TestGenerateZeroAlloc): arrival state
// and buckets are preallocated by Prepare.
func (in *Injector) generate(emit func(core, dst int)) {
	if in.cursor == in.blockEnd {
		in.refill()
	}
	for _, a := range in.buckets[in.cursor-in.blockStart] {
		emit(int(a.core), int(a.dst))
	}
	in.cursor++
}

// refill draws the next block of cycles, core by core (or four cores at a
// time, for an unskewed Bernoulli segment): each core runs its own stream
// through the whole block — arrival draws, and on each hit the
// destination draws, in the order the cycle-by-cycle loop would make them
// — dropping its injections into the per-cycle buckets, which therefore
// fill in ascending core order. A block never crosses a schedule-segment
// end, because the next segment's process takes the streams over there.
// Draws for cycles that are never emitted (after Stop, past the span) are
// invisible: nothing else reads the streams.
func (in *Injector) refill() {
	for in.seg < len(in.segEnd)-1 && in.cursor >= in.segEnd[in.seg] {
		in.seg++
	}
	end := in.cursor + blockLen
	if in.seg < len(in.segEnd)-1 {
		end = min(end, in.segEnd[in.seg])
	}
	n := int(end - in.cursor)
	buckets := in.buckets[:n]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	a := in.arrivals[in.seg]
	t := in.cursor - in.segStart[in.seg]
	c := 0
	if b, ok := a.(bernoulliArrival); ok && in.weights == nil && b.rate > 0 && b.rate < 1 {
		// The paper's source, unskewed: four cores' streams advance side by
		// side (sim.BernoulliLanes), each hit drawing its destination from
		// its own lane, so each cycle's bucket still fills in ascending core
		// order. The cores past the last multiple of four take the loop
		// below.
		for ; c+4 <= len(in.rngs); c += 4 {
			lanes := (*[4]sim.RNG)(in.rngs[c : c+4])
			sim.BernoulliLanes(lanes, b.rate, n, func(lane, i int) {
				dst := in.pattern.Dest((c+lane)/in.coresPerNode, in.nodes, &lanes[lane])
				buckets[i] = append(buckets[i], arrival{int32(c + lane), int32(dst)})
			})
		}
	}
	for ; c < len(in.rngs); c++ {
		rng := &in.rngs[c]
		w := 1.0
		if in.weights != nil {
			w = in.weights[c]
		}
		src := c / in.coresPerNode
		for i := 0; i < n; i++ {
			i += a.Next(c, t+int64(i), n-i, w, rng)
			if i == n {
				break
			}
			dst := in.pattern.Dest(src, in.nodes, rng)
			buckets[i] = append(buckets[i], arrival{int32(c), int32(dst)})
		}
	}
	in.blockStart, in.blockEnd = in.cursor, end
}

// Run drives net through its full window (warmup+measure with injection,
// then drain without) and returns the result. This is the open-loop
// synthetic evaluation loop used by every synthetic-workload experiment:
// arrivals are drawn from the configured schedule regardless of network
// state, so offered load never self-throttles (contrast the closed-loop
// CMP study, where MSHR-limited cores stall on outstanding misses — see
// DESIGN.md "Open-loop vs closed-loop").
func (in *Injector) Run(net *core.Network) core.Result {
	w := net.Window()
	for cyc := int64(0); cyc < w.Warmup+w.Measure; cyc++ {
		in.Tick(net)
		net.Step()
	}
	// Drain: stop injecting, let tagged packets finish. RunCycles engages
	// the idle fast path once the tail has fully drained.
	net.RunCycles(w.Drain)
	return net.Result()
}
