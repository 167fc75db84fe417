// Package fault is the optical fault-injection subsystem: a deterministic,
// seed-derived source of the failures a real silicon-photonic substrate
// suffers and a perfect simulator otherwise hides — arbitration tokens that
// die in the waveguide, handshake ACK/NACK pulses that never reach their
// sender, data flits corrupted in flight, and transient per-node resonator
// drift that takes a node's E/O tuning off-channel for a burst of cycles.
//
// Corruption is modelled as detected loss: optical links protect tokens,
// pulses and flits with coding, so a corrupted unit is recognised and
// discarded by its receiver rather than mis-acted-upon. (Undetected
// corruption would silently forge protocol state and is outside the fault
// model; DESIGN.md discusses the boundary.) A "kill" therefore covers both
// the drop and the corrupt case of each class.
//
// Determinism contract: every fault class of every element (channel or
// node) draws from a private RNG stream derived via sim.DeriveSeed, so a
// given (seed, config) pair produces the identical fault schedule on every
// run regardless of what the rest of the simulator does with its own
// generators — runs under fault injection stay digest-reproducible, and a
// zero-rate class consumes no randomness at all (the recovery machinery is
// provably inert when no faults fire).
package fault

import (
	"fmt"
	"math"

	"photon/internal/sim"
)

// Class identifies one fault class.
type Class int

const (
	// TokenLoss kills an arbitration token: a circulating global token
	// vanishes from the loop, or a distributed slot token dies as it leaves
	// home (its credit, if any, stranded until the watchdog reclaims it).
	TokenLoss Class = iota
	// PulseLoss kills a handshake ACK/NACK pulse in flight; the sender
	// never hears the answer and must recover by retransmit timeout.
	PulseLoss
	// DataLoss corrupts a data flit in flight; the home node discards the
	// unreadable arrival and — the header being unreadable too — cannot
	// even NACK it.
	DataLoss
	// NodeStall is transient resonator drift: the node's modulators fall
	// off-channel for a burst of cycles, during which it can neither
	// capture tokens nor launch packets. Nothing is lost, only delayed.
	NodeStall

	// NumClasses is the number of fault classes.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case TokenLoss:
		return "token-loss"
	case PulseLoss:
		return "pulse-loss"
	case DataLoss:
		return "data-loss"
	case NodeStall:
		return "node-stall"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists every fault class in presentation order.
func Classes() []Class { return []Class{TokenLoss, PulseLoss, DataLoss, NodeStall} }

// MaxBurst is the structural cap on a class's burst length, mirroring the
// depth caps of core.Config: far above anything physical, present so a
// malformed sweep point fails fast in Validate instead of wedging a run
// (the fuzz target drives Validate with adversarial values).
const MaxBurst = 1 << 20

// ClassConfig configures one fault class.
type ClassConfig struct {
	// Rate is the per-opportunity Bernoulli fault probability in [0, 1].
	// An "opportunity" is class-specific: each cycle a free global token
	// circulates (or each slot-token emission), each delivered handshake
	// pulse, each data-flit arrival, each node-cycle.
	Rate float64
	// Burst is how many consecutive opportunities of the same element one
	// trigger affects (resonator drift and thermal transients come in
	// bursts, not single cycles). 0 and 1 both mean single-opportunity
	// faults; for NodeStall the burst is the stall length in cycles.
	Burst int
}

func (c ClassConfig) validate(name string) error {
	if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("fault: %s rate must be a finite number, got %g", name, c.Rate)
	}
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("fault: %s rate must be in [0, 1], got %g", name, c.Rate)
	}
	if c.Burst < 0 {
		return fmt.Errorf("fault: %s burst must be >= 0, got %d", name, c.Burst)
	}
	if c.Burst > MaxBurst {
		return fmt.Errorf("fault: %s burst %d exceeds the structural cap %d", name, c.Burst, MaxBurst)
	}
	return nil
}

// Config is the fault model of one run. The zero value (Enabled false)
// leaves the optical substrate perfect.
type Config struct {
	// Enabled turns the injector on; when false the other fields are inert.
	Enabled bool
	// Warmup is the guard window: no fault fires before this cycle, so
	// runs can reach steady state (and tests can script exact fault
	// windows) before the substrate degrades.
	Warmup int64
	// Seed drives the fault streams. 0 means "derive from the network
	// seed", keeping single-seed runs single-knob reproducible.
	Seed uint64

	// Per-class configuration.
	Token ClassConfig
	Pulse ClassConfig
	Data  ClassConfig
	Stall ClassConfig
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Warmup < 0 {
		return fmt.Errorf("fault: warmup guard must be >= 0, got %d", c.Warmup)
	}
	if err := c.Token.validate("token"); err != nil {
		return err
	}
	if err := c.Pulse.validate("pulse"); err != nil {
		return err
	}
	if err := c.Data.validate("data"); err != nil {
		return err
	}
	return c.Stall.validate("stall")
}

// SetClass returns a copy of the config with one class replaced — the
// sweep helper the chaos battery uses to light up classes one at a time.
func (c Config) SetClass(cl Class, cc ClassConfig) Config {
	switch cl {
	case TokenLoss:
		c.Token = cc
	case PulseLoss:
		c.Pulse = cc
	case DataLoss:
		c.Data = cc
	case NodeStall:
		c.Stall = cc
	default:
		panic(fmt.Sprintf("fault: SetClass of invalid class %d", int(cl)))
	}
	return c
}

// Injector is the per-run fault source. One injector serves one network:
// the network consults it at each fault opportunity and applies the
// protocol consequences itself (the injector knows nothing of packets or
// credits — it only answers "does this opportunity fail?").
//
// Not safe for concurrent use; like every simulator substrate it belongs
// to a single network goroutine.
type Injector struct {
	cfg Config

	// Per-element RNG streams and burst countdowns, one per channel for
	// the in-flight classes and one per node for stalls.
	tokenRNG, pulseRNG, dataRNG       []*sim.RNG
	tokenBurst, pulseBurst, dataBurst []int

	stallRNG  []*sim.RNG
	stallLeft []int

	counts [NumClasses]int64
}

// NewInjector builds an injector for a network of the given node count
// (node count == channel count on the MWSR ring). The config must have
// been validated; NewInjector panics on out-of-range rates rather than
// silently misbehaving.
func NewInjector(cfg Config, nodes int) *Injector {
	if err := cfg.Validate(); err != nil {
		panic("fault: NewInjector on invalid config: " + err.Error())
	}
	if nodes < 1 {
		panic(fmt.Sprintf("fault: NewInjector needs at least 1 node, got %d", nodes))
	}
	in := &Injector{
		cfg:        cfg,
		tokenRNG:   make([]*sim.RNG, nodes),
		pulseRNG:   make([]*sim.RNG, nodes),
		dataRNG:    make([]*sim.RNG, nodes),
		tokenBurst: make([]int, nodes),
		pulseBurst: make([]int, nodes),
		dataBurst:  make([]int, nodes),
		stallRNG:   make([]*sim.RNG, nodes),
		stallLeft:  make([]int, nodes),
	}
	for i := 0; i < nodes; i++ {
		in.tokenRNG[i] = sim.NewRNG(sim.DeriveSeed(cfg.Seed, streamID(TokenLoss, i)))
		in.pulseRNG[i] = sim.NewRNG(sim.DeriveSeed(cfg.Seed, streamID(PulseLoss, i)))
		in.dataRNG[i] = sim.NewRNG(sim.DeriveSeed(cfg.Seed, streamID(DataLoss, i)))
		in.stallRNG[i] = sim.NewRNG(sim.DeriveSeed(cfg.Seed, streamID(NodeStall, i)))
	}
	return in
}

// streamID spreads (class, element) pairs into distinct DeriveSeed streams.
func streamID(cl Class, element int) uint64 {
	return uint64(cl)<<32 | uint64(uint32(element))
}

// Counts reports how many faults of each class have fired.
func (in *Injector) Counts() [NumClasses]int64 { return in.counts }

// fire is the shared per-opportunity decision: honour the warm-up guard,
// drain an active burst, otherwise draw. A zero rate draws nothing, so
// configured-but-silent classes leave their streams untouched.
func (in *Injector) fire(cl Class, r *sim.RNG, burst *int, cc ClassConfig, now int64) bool {
	if now < in.cfg.Warmup {
		return false
	}
	if *burst > 0 {
		*burst--
		in.counts[cl]++
		return true
	}
	if cc.Rate <= 0 {
		return false
	}
	if !r.Bernoulli(cc.Rate) {
		return false
	}
	if cc.Burst > 1 {
		*burst = cc.Burst - 1
	}
	in.counts[cl]++
	return true
}

// KillToken reports whether this cycle's token opportunity on channel ch
// fails (a circulating global token dies, or the slot token being emitted
// never leaves home alive).
func (in *Injector) KillToken(ch int, now int64) bool {
	return in.fire(TokenLoss, in.tokenRNG[ch], &in.tokenBurst[ch], in.cfg.Token, now)
}

// KillPulse reports whether a handshake pulse being delivered on channel
// ch's handshake waveguide dies instead.
func (in *Injector) KillPulse(ch int, now int64) bool {
	return in.fire(PulseLoss, in.pulseRNG[ch], &in.pulseBurst[ch], in.cfg.Pulse, now)
}

// KillData reports whether the data flit arriving at channel ch's home
// this cycle is corrupted and must be discarded unread.
func (in *Injector) KillData(ch int, now int64) bool {
	return in.fire(DataLoss, in.dataRNG[ch], &in.dataBurst[ch], in.cfg.Data, now)
}

// BeginCycle advances the per-node stall state for cycle now: active
// drifts tick down, idle nodes may start a new drift of Burst cycles.
// onStall (may be nil) is invoked once per drift onset — not per stalled
// cycle — so the network can record the fault event. Call exactly once
// per cycle before consulting Stalled.
func (in *Injector) BeginCycle(now int64, onStall func(node int)) {
	if in.cfg.Stall.Rate <= 0 {
		return
	}
	for n := range in.stallLeft {
		if in.stallLeft[n] > 0 {
			in.stallLeft[n]--
			continue
		}
		if now >= in.cfg.Warmup && in.stallRNG[n].Bernoulli(in.cfg.Stall.Rate) {
			burst := in.cfg.Stall.Burst
			if burst < 1 {
				burst = 1
			}
			in.stallLeft[n] = burst
			in.counts[NodeStall]++
			if onStall != nil {
				onStall(n)
			}
		}
	}
}

// Stalled reports whether node is currently drifted off-channel.
func (in *Injector) Stalled(node int) bool { return in.stallLeft[node] > 0 }
