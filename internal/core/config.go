package core

import (
	"fmt"
	"math"

	"photon/internal/arbiter"
	"photon/internal/fault"
)

// Config fully describes one simulated network. The zero value is not
// runnable; start from DefaultConfig and override.
type Config struct {
	// Nodes is the number of ring nodes (64 in the paper).
	Nodes int
	// CoresPerNode is the concentration degree (4 in the paper); loads in
	// packets/cycle/core are converted to node rates with this.
	CoresPerNode int
	// RoundTrip is the optical loop's round-trip time R in cycles (8).
	// Nodes must be divisible by RoundTrip.
	RoundTrip int

	// Scheme selects arbitration + flow control.
	Scheme Scheme

	// BufferDepth is the home node's input buffer depth — the credit count
	// of the token-based schemes and the accept/drop threshold of the
	// handshake schemes (paper default 8).
	BufferDepth int
	// SetasideSize is the number of setaside slots per node for the
	// *Setaside schemes (paper sensitivity: 1..16; default 4).
	SetasideSize int
	// QueueCap bounds each node's output queue; 0 = unbounded (open-loop
	// evaluation standard).
	QueueCap int

	// EjectRate is how many packets per cycle the home buffer drains to
	// the cores (1 — the ejection port of the 2-stage router).
	EjectRate int
	// EjectStallProb stalls ejection for a cycle with this probability,
	// modelling receiver-side contention; 0 for open-loop sweeps.
	EjectStallProb float64
	// RouterPipeline is the electrical injection pipeline depth in cycles
	// (2: RC+SA then ST, paper §IV-B).
	RouterPipeline int
	// EjectLatency is the electrical ejection latency in cycles (1).
	EjectLatency int

	// Fairness configures the contended-channel service-quota policy
	// (the "well-served nodes sit on their hands" idea of Fair Slot).
	Fairness arbiter.FairnessConfig

	// CheckInvariants enables per-cycle credit-conservation and channel
	// occupancy checks (cheap; on by default, benches may disable).
	CheckInvariants bool

	// Seed drives every stochastic element (ejection stalls; traffic
	// sources fork from it by convention).
	Seed uint64

	// Fault configures the optical fault injector (internal/fault). The
	// zero value leaves the substrate perfect; with Fault.Seed == 0 the
	// fault streams derive from the network Seed.
	Fault fault.Config
	// Recovery enables and tunes the protocol-level fault recovery
	// machinery (retransmit timeouts, token-regeneration watchdog). It is
	// independent of Fault so tests can demonstrate both the recovery
	// (faults + recovery) and the stranding (faults alone) behaviours.
	Recovery RecoveryConfig
}

// RecoveryConfig tunes the fault-recovery protocol. Windows are in
// cycles; zero selects a default derived from the loop round trip R.
//
// The sender timeout is not a knob: a launch with no ACK/NACK after
// 2*(R+2) cycles — comfortably above the fixed R+1 answer delay, so a
// healthy handshake can never time out — is assumed lost and
// retransmitted, and each consecutive timeout doubles that window, up to
// 2*(R+2) << retxBackoffCap.
type RecoveryConfig struct {
	// Enabled arms sender retransmit timers and home watchdogs. With no
	// faults configured the machinery is provably inert: timers are always
	// answered before their deadline and watchdogs always observe token
	// activity, so run digests are bit-identical to recovery-off runs.
	Enabled bool
	// WatchdogWindow is how many cycles of arbitration silence (no token
	// pass and no arrival at home) a globally arbitrated channel tolerates
	// before the home node regenerates the token. 0 derives 4R+8, above
	// the longest healthy silence (a capture at the far side of the loop
	// followed by the first flit's flight). The duplicate-token guard in
	// the arbiter makes even a misjudged firing safe.
	WatchdogWindow int
}

// retxBackoffCap caps the sender timeout's exponential backoff shift
// (see RecoveryConfig).
const retxBackoffCap = 4

// watchdogWindow resolves the token-watchdog silence window default.
func (c Config) watchdogWindow() int64 {
	if c.Recovery.WatchdogWindow > 0 {
		return int64(c.Recovery.WatchdogWindow)
	}
	return int64(4*c.RoundTrip + 8)
}

// DefaultConfig returns the paper's evaluation configuration for a scheme:
// 64 nodes x 4 cores, R = 8, 8 credits, 4 setaside slots, fair token
// policies enabled.
func DefaultConfig(s Scheme) Config {
	return Config{
		Nodes:           64,
		CoresPerNode:    4,
		RoundTrip:       8,
		Scheme:          s,
		BufferDepth:     8,
		SetasideSize:    4,
		QueueCap:        0,
		EjectRate:       1,
		EjectStallProb:  0,
		RouterPipeline:  2,
		EjectLatency:    1,
		Fairness:        arbiter.DefaultFairness(),
		CheckInvariants: true,
		Seed:            1,
	}
}

// Cores returns the total number of cores.
func (c Config) Cores() int { return c.Nodes * c.CoresPerNode }

// Structural size caps enforced by Validate. They are far above anything
// the paper's studies use (64 nodes, 4 cores); their purpose is to make
// malformed sweep points fail fast with an error instead of letting
// NewNetwork attempt a multi-gigabyte allocation (the fuzz targets drive
// Validate with adversarial values).
const (
	MaxNodes        = 1 << 12
	MaxCoresPerNode = 1 << 8
	maxDepth        = 1 << 20 // buffers, queues, pipelines
)

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("core: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.Nodes > MaxNodes {
		return fmt.Errorf("core: node count %d exceeds the structural cap %d", c.Nodes, MaxNodes)
	}
	if c.CoresPerNode < 1 {
		return fmt.Errorf("core: cores per node must be >= 1, got %d", c.CoresPerNode)
	}
	if c.CoresPerNode > MaxCoresPerNode {
		return fmt.Errorf("core: cores per node %d exceeds the structural cap %d", c.CoresPerNode, MaxCoresPerNode)
	}
	if c.RoundTrip < 1 || c.Nodes%c.RoundTrip != 0 {
		return fmt.Errorf("core: round trip %d must be >= 1 and divide node count %d", c.RoundTrip, c.Nodes)
	}
	if _, ok := LookupProtocol(c.Scheme); !ok {
		return fmt.Errorf("core: invalid scheme %d", int(c.Scheme))
	}
	if c.BufferDepth < 1 || c.BufferDepth > maxDepth {
		return fmt.Errorf("core: buffer depth must be in [1, %d], got %d", maxDepth, c.BufferDepth)
	}
	if (c.Scheme == GHSSetaside || c.Scheme == DHSSetaside) && c.SetasideSize < 1 {
		return fmt.Errorf("core: setaside schemes need SetasideSize >= 1, got %d", c.SetasideSize)
	}
	if c.SetasideSize > maxDepth {
		return fmt.Errorf("core: setaside size %d exceeds the structural cap %d", c.SetasideSize, maxDepth)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("core: queue cap must be >= 0, got %d", c.QueueCap)
	}
	if c.EjectRate < 1 || c.EjectRate > maxDepth {
		return fmt.Errorf("core: eject rate must be in [1, %d], got %d", maxDepth, c.EjectRate)
	}
	if math.IsNaN(c.EjectStallProb) || c.EjectStallProb < 0 || c.EjectStallProb >= 1 {
		return fmt.Errorf("core: eject stall probability must be in [0,1), got %g", c.EjectStallProb)
	}
	if c.RouterPipeline < 0 || c.RouterPipeline > maxDepth {
		return fmt.Errorf("core: router pipeline must be in [0, %d], got %d", maxDepth, c.RouterPipeline)
	}
	if c.EjectLatency < 0 || c.EjectLatency > maxDepth {
		return fmt.Errorf("core: eject latency must be in [0, %d], got %d", maxDepth, c.EjectLatency)
	}
	if err := c.Fairness.Validate(); err != nil {
		return err
	}
	// Fault rates are validated whenever the block is enabled — NaN or
	// out-of-[0,1] rates must fail here, not surface as skewed Bernoulli
	// draws deep in a run (mirrors the EjectStallProb check above).
	if c.Fault.Enabled {
		if err := c.Fault.Validate(); err != nil {
			return err
		}
	}
	if c.Recovery.WatchdogWindow < 0 || c.Recovery.WatchdogWindow > maxDepth {
		return fmt.Errorf("core: watchdog window must be in [0, %d], got %d", maxDepth, c.Recovery.WatchdogWindow)
	}
	return nil
}
