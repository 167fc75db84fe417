// Package photon is a cycle-accurate simulator of ring-based MWSR
// nanophotonic networks-on-chip and a faithful reproduction of
// "A Case for Handshake in Nanophotonic Interconnects" (Wang et al.,
// IPDPS 2013). It implements the paper's two baselines — Token Channel and
// Token Slot arbitration with credit-based flow control — and its four
// contributions: Global Handshake (GHS), Distributed Handshake (DHS), the
// setaside-buffer enhancement and the circulation technique, together with
// the optical component/power models and the workloads needed to
// regenerate every figure and table of the paper's evaluation.
//
// # Quick start
//
//	cfg := photon.DefaultConfig(photon.DHSSetaside)
//	net, err := photon.NewNetwork(cfg, photon.DefaultWindow())
//	if err != nil { ... }
//	inj, err := photon.NewInjector(photon.UniformRandom{}, 0.11,
//	        cfg.Nodes, cfg.CoresPerNode, 1)
//	if err != nil { ... }
//	res := inj.Run(net)
//	fmt.Printf("latency %.1f cycles, throughput %.3f pkt/cycle/core\n",
//	        res.AvgLatency, res.Throughput)
//
// The package is a thin facade over the implementation packages:
// internal/core (the network and schemes), internal/ring (optical
// timing), internal/arbiter, internal/flow, internal/router (substrates),
// internal/traffic and internal/trace (workloads), internal/cpu (the
// closed-loop CMP model), and internal/phys and internal/power (hardware
// budgets and power). The per-figure experiment drivers (internal/exp)
// are reached through cmd/sweep, not the facade. Everything is
// stdlib-only and deterministic: identical seeds give identical results.
package photon

import (
	"photon/internal/core"
	"photon/internal/cpu"
	"photon/internal/phys"
	"photon/internal/power"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/swmr"
	"photon/internal/trace"
	"photon/internal/traffic"
)

// Scheme identifies an arbitration + flow-control scheme.
type Scheme = core.Scheme

// The seven schemes of the paper's evaluation.
const (
	TokenChannel   = core.TokenChannel
	TokenSlot      = core.TokenSlot
	GHS            = core.GHS
	GHSSetaside    = core.GHSSetaside
	DHS            = core.DHS
	DHSSetaside    = core.DHSSetaside
	DHSCirculation = core.DHSCirculation
)

// Schemes lists every implemented scheme in presentation order.
func Schemes() []Scheme { return core.Schemes() }

// ParseScheme converts a CLI name ("dhs-setaside", ...) into a Scheme.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// Config fully describes one simulated network; see DefaultConfig.
type Config = core.Config

// DefaultConfig returns the paper's 64-node, 256-core configuration for a
// scheme.
func DefaultConfig(s Scheme) Config { return core.DefaultConfig(s) }

// Network is one cycle-accurate simulation instance.
type Network = core.Network

// NewNetwork builds a network measuring over the given window.
func NewNetwork(cfg Config, w Window) (*Network, error) { return core.NewNetwork(cfg, w) }

// Result condenses a finished run into the quantities the paper reports.
type Result = core.Result

// Packet is the single-flit transfer unit; delivered packets carry their
// full timestamp history. A *Packet belongs to the network that injected
// it. Inject returns the packet's id, not a pointer: while the packet waits
// behind its output queue's head the network keeps it as a compact
// descriptor and builds a Packet again when it reaches the head. The
// pointer handed to OnDeliver or a Tracer is valid for the duration of
// that call — after that the network recycles it for a later injection,
// so copy the struct (or the fields you need) to keep it, keyed by id.
// Reset, Hold and Drop are the engine's side of that contract, not the
// caller's.
type Packet = router.Packet

// Packet classes for closed-loop workloads.
const (
	ClassData    = router.ClassData
	ClassRequest = router.ClassRequest
	ClassReply   = router.ClassReply
)

// Window carves a run into warmup / measurement / drain phases.
type Window = sim.Window

// DefaultWindow returns the standard 40k-cycle evaluation window.
func DefaultWindow() Window { return sim.DefaultWindow() }

// ShortWindow returns a reduced window for smoke runs and tests.
func ShortWindow() Window { return sim.ShortWindow() }

// RNG is the deterministic random number generator threaded through every
// stochastic element; custom Pattern implementations receive one.
type RNG = sim.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// Pattern maps source nodes to destination nodes.
type Pattern = traffic.Pattern

// The synthetic patterns (UR, BC and TOR are the paper's three).
type (
	UniformRandom = traffic.UniformRandom
	BitComplement = traffic.BitComplement
	Tornado       = traffic.Tornado
	Transpose     = traffic.Transpose
	Neighbor      = traffic.Neighbor
	Hotspot       = traffic.Hotspot
)

// PatternByName resolves a CLI pattern label (UR, BC, TOR, TP, NBR).
func PatternByName(name string) (Pattern, error) { return traffic.ByName(name) }

// Injector drives a network with Bernoulli arrivals at a per-core rate.
type Injector = traffic.Injector

// NewInjector builds an injector for a pattern at rate packets/cycle/core.
func NewInjector(p Pattern, rate float64, nodes, coresPerNode int, seed uint64) (*Injector, error) {
	return traffic.NewInjector(p, rate, nodes, coresPerNode, seed)
}

// Trace is an application workload: timestamped injection records.
type Trace = trace.Trace

// TraceRecord is one injection event of a Trace.
type TraceRecord = trace.Record

// AppModel parameterises the synthetic generator for one benchmark.
type AppModel = trace.AppModel

// Apps returns the 13 benchmark models of the paper's Figure 10.
func Apps() []AppModel { return trace.Apps() }

// AppByName finds a benchmark model by name.
func AppByName(name string) (AppModel, error) { return trace.AppByName(name) }

// ReplayTrace drives a network with a trace open-loop and returns the
// result after draining.
func ReplayTrace(t *Trace, net *Network, drainLimit int64) (Result, error) {
	return trace.Replay(t, net, drainLimit)
}

// CMP couples MSHR-limited cores to a network for closed-loop (IPC)
// studies.
type CMP = cpu.CMP

// CMPParams configures the CMP model.
type CMPParams = cpu.Params

// CMPOutcome summarises a closed-loop run.
type CMPOutcome = cpu.Outcome

// DefaultCMPParams returns the paper's CMP configuration (4 MSHRs/core).
func DefaultCMPParams() CMPParams { return cpu.DefaultParams() }

// NewCMP builds a CMP on top of a network.
func NewCMP(p CMPParams, net *Network) (*CMP, error) { return cpu.New(p, net) }

// NetworkShape describes node count, concentration and channel width.
type NetworkShape = phys.NetworkShape

// DefaultShape returns the paper's 256-core, 64-node shape.
func DefaultShape() NetworkShape { return phys.DefaultShape() }

// ComponentInventory is one row of Table I.
type ComponentInventory = phys.Inventory

// TableI computes the optical component budget of the standard schemes.
func TableI(shape NetworkShape) []ComponentInventory { return phys.TableI(shape) }

// PowerModel evaluates per-scheme power and energy (Figure 12).
type PowerModel = power.Model

// PowerBreakdown is one bar of Figure 12(a).
type PowerBreakdown = power.Breakdown

// PowerActivity is the traffic a power estimate is evaluated at.
type PowerActivity = power.Activity

// DefaultPowerModel returns the paper's technology point.
func DefaultPowerModel() PowerModel { return power.DefaultModel() }

// SWMR is the Single-Write-Multiple-Read extension (§II-B of the paper
// notes the handshake schemes apply to SWMR too): every node owns the
// channel it writes and contention moves to the receiver's ports/buffer.
type (
	// SWMRScheme selects the SWMR flow-control discipline (reservation
	// baseline vs handshake).
	SWMRScheme = swmr.Scheme
	// SWMRConfig describes an SWMR network.
	SWMRConfig = swmr.Config
	// SWMRNetwork is one SWMR simulation instance.
	SWMRNetwork = swmr.Network
	// SWMRResult condenses an SWMR run.
	SWMRResult = swmr.Result
)

// The SWMR disciplines.
const (
	SWMRReservation       = swmr.Reservation
	SWMRHandshake         = swmr.Handshake
	SWMRHandshakeSetaside = swmr.HandshakeSetaside
)

// SWMRSchemes lists the SWMR disciplines.
func SWMRSchemes() []SWMRScheme { return swmr.Schemes() }

// DefaultSWMRConfig returns the 64-node SWMR configuration.
func DefaultSWMRConfig(s SWMRScheme) SWMRConfig { return swmr.DefaultConfig(s) }

// NewSWMRNetwork builds an SWMR network measuring over w.
func NewSWMRNetwork(cfg SWMRConfig, w Window) (*SWMRNetwork, error) {
	return swmr.NewNetwork(cfg, w)
}

// Table renders experiment output as text or CSV.
type Table = stats.Table
