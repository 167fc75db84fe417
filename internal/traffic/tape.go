package traffic

import (
	"fmt"
	"math"

	"photon/internal/core"
	"photon/internal/router"
)

// A Tape is a pre-generated injection schedule: the exact (cycle, core,
// destination) sequence an injector would produce for one
// (workload, pattern, seed) triple. Tapes make traffic a first-class
// value that can be replayed, unchanged, through networks running
// *different* schemes — the basis of the differential tests in
// internal/check, which must prove that two schemes saw byte-identical
// offered traffic before comparing their packet accounting.
//
// Because RecordTape and Injector.Tick share one generation routine
// (Injector.generate), replaying a tape through a network is
// bit-equivalent to driving it live with the injector it was recorded
// from; TestTapeMatchesInjector pins that equivalence. Generalized
// workloads (phased schedules, bursty/flash arrivals, client skew)
// record exactly the same way: the tape captures the realized draw
// sequence, so replay needs no workload state at all.
type Tape struct {
	// Seed is the seed of the generator the tape was recorded from.
	Seed uint64

	// Nodes/CoresPerNode fix the geometry the entries are valid for.
	Nodes        int
	CoresPerNode int

	// Cycles is the recorded horizon: entries cover cycles [0, Cycles).
	Cycles int64

	// Entries are the injections in nondecreasing cycle order.
	Entries []TapeEntry
}

// TapeEntry is one scheduled injection.
type TapeEntry struct {
	Cycle int64
	Core  int
	Dst   int
}

// RecordTape pre-generates cycles worth of injections for the given
// pattern, per-core Bernoulli rate and seed.
func RecordTape(pattern Pattern, rate float64, nodes, coresPerNode int, seed uint64, cycles int64) (*Tape, error) {
	in, err := NewInjector(pattern, rate, nodes, coresPerNode, seed)
	if err != nil {
		return nil, err
	}
	return record(in, seed, cycles)
}

// RecordWorkloadTape pre-generates cycles worth of injections for a
// generalized workload. The schedule is bound to the recorded horizon, so
// a tape replayed through a window whose injection span equals cycles is
// bit-identical to driving that window live.
func RecordWorkloadTape(w *Workload, pattern Pattern, nodes, coresPerNode int, seed uint64, cycles int64) (*Tape, error) {
	in, err := NewWorkloadInjector(w, pattern, nodes, coresPerNode, seed)
	if err != nil {
		return nil, err
	}
	return record(in, seed, cycles)
}

// record drains the injector's generator into a tape.
func record(in *Injector, seed uint64, cycles int64) (*Tape, error) {
	if cycles < 0 {
		return nil, fmt.Errorf("traffic: negative tape length %d", cycles)
	}
	t := &Tape{
		Seed:         seed,
		Nodes:        in.nodes,
		CoresPerNode: in.coresPerNode,
		Cycles:       cycles,
	}
	in.Prepare(cycles)
	// Size the entries for the expected count plus four standard
	// deviations, so recording a long tape does not regrow it by doubling.
	mean := in.Rate() * float64(len(in.rngs)) * float64(cycles)
	t.Entries = make([]TapeEntry, 0, int(mean+4*math.Sqrt(mean))+16)
	for cyc := int64(0); cyc < cycles; cyc++ {
		c := cyc
		in.generate(func(core, dst int) {
			t.Entries = append(t.Entries, TapeEntry{Cycle: c, Core: core, Dst: dst})
		})
	}
	return t, nil
}

// Compatible reports whether the tape's geometry matches cfg.
func (t *Tape) Compatible(cfg core.Config) error {
	if cfg.Nodes != t.Nodes || cfg.CoresPerNode != t.CoresPerNode {
		return fmt.Errorf("traffic: tape recorded for %dx%d, network is %dx%d",
			t.Nodes, t.CoresPerNode, cfg.Nodes, cfg.CoresPerNode)
	}
	return nil
}

// Run replays the tape through net over its window — entries are injected
// at their recorded cycles during warmup+measure, then the network runs
// its drain phase — and returns the result. The tape must cover the
// window's injection span (warmup+measure cycles); a shorter tape is an
// error because the run would silently under-offer load.
func (t *Tape) Run(net *core.Network) (core.Result, error) {
	if err := t.Compatible(net.Config()); err != nil {
		return core.Result{}, err
	}
	w := net.Window()
	if span := w.Warmup + w.Measure; t.Cycles < span {
		return core.Result{}, fmt.Errorf("traffic: tape covers %d cycles, window injects for %d", t.Cycles, span)
	}
	i := 0
	span := w.Warmup + w.Measure
	for cyc := int64(0); cyc < span; {
		for i < len(t.Entries) && t.Entries[i].Cycle == cyc {
			e := t.Entries[i]
			net.Inject(e.Core, e.Dst, router.ClassData, 0)
			i++
		}
		net.Step()
		cyc++
		// Cover the gap to the next recorded injection (or the span end)
		// with one RunCycles call: bit-identical to stepping it, but a
		// sparse tape lets the idle fast path skip the dead cycles.
		next := span
		if i < len(t.Entries) && t.Entries[i].Cycle < span {
			next = t.Entries[i].Cycle
		}
		if next > cyc {
			net.RunCycles(next - cyc)
			cyc = next
		}
	}
	net.RunCycles(w.Drain)
	return net.Result(), nil
}
