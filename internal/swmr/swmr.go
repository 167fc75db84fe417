// Package swmr implements the paper's stated extension target: handshake
// flow control on a Single-Write-Multiple-Read optical interconnect
// (§II-B: "Although our handshake schemes can be applied to both MWSR and
// SWMR, we choose MWSR as our interconnect pattern for its simplicity and
// low cost").
//
// In SWMR every node *owns* the channel it writes (Firefly-style), so
// sender-side arbitration disappears — a sender launches whenever it
// likes. The contention moves to the receiver: before data arrives the
// receiver must have been notified to tune its detector rings, and a node
// can only capture a bounded number of simultaneous arrivals (RxPorts
// buffer-write ports) into a bounded input buffer. Two flow-control
// disciplines are modelled:
//
//   - Reservation — the conservative baseline: a sender first requests a
//     slot on the receiver's notification wavelength; the receiver grants
//     (reserving one buffer slot and the arrival cycle's port) or defers.
//     A packet is sent only after its grant returns, costing a full
//     notification round trip per packet before any data moves — the SWMR
//     analogue of credit/reservation flow control (cf. the circuit-setup
//     networks of §VI).
//
//   - Handshake — the paper's idea transplanted: send immediately, let the
//     receiver ACK/NACK. A NACK (no free buffer slot or no free rx port in
//     the arrival cycle) drops the flit and the sender retransmits.
//     Optionally with setaside buffers, exactly as in MWSR.
//
// The timing model reuses the ring geometry: notifications, grants, data
// and handshake pulses all travel at NodesPerCycle node positions per
// cycle on the unidirectional loop.
package swmr

import (
	"fmt"
	"math"

	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/stats"
)

// Scheme selects the SWMR flow-control discipline.
type Scheme int

const (
	// Reservation requests a buffer slot before sending (baseline).
	Reservation Scheme = iota
	// Handshake sends immediately and retransmits on NACK, holding the
	// queue head until the ACK (basic, HOL-prone).
	Handshake
	// HandshakeSetaside is Handshake with setaside buffers.
	HandshakeSetaside

	numSchemes
)

func (s Scheme) String() string {
	switch s {
	case Reservation:
		return "swmr-reservation"
	case Handshake:
		return "swmr-handshake"
	case HandshakeSetaside:
		return "swmr-handshake-setaside"
	default:
		return fmt.Sprintf("swmr.Scheme(%d)", int(s))
	}
}

// Schemes lists the implemented SWMR disciplines.
func Schemes() []Scheme { return []Scheme{Reservation, Handshake, HandshakeSetaside} }

// sendPolicy maps the discipline to the sender-side retention policy.
func (s Scheme) sendPolicy() router.SendPolicy {
	switch s {
	case Handshake:
		return router.HoldHead
	case HandshakeSetaside:
		return router.Setaside
	default:
		return router.FireAndForget // reservation guarantees delivery
	}
}

// Config describes one SWMR network.
type Config struct {
	// Nodes, CoresPerNode and RoundTrip as in the MWSR configuration.
	Nodes        int
	CoresPerNode int
	RoundTrip    int

	Scheme Scheme

	// BufferDepth is each node's input buffer (shared across all senders).
	BufferDepth int
	// RxPorts bounds simultaneous arrivals buffered per cycle; extra
	// arrivals are NACKed (handshake) or never happen (reservation
	// reserves the arrival cycle's port).
	RxPorts int
	// SetasideSize for HandshakeSetaside.
	SetasideSize int
	// EjectRate drains the input buffer to the cores.
	EjectRate int
	// EjectStallProb models receiver-side contention.
	EjectStallProb float64
	Seed           uint64
}

// DefaultConfig mirrors the paper's 64-node CMP for SWMR.
func DefaultConfig(s Scheme) Config {
	return Config{
		Nodes:        64,
		CoresPerNode: 4,
		RoundTrip:    8,
		Scheme:       s,
		BufferDepth:  8,
		RxPorts:      2,
		SetasideSize: 4,
		EjectRate:    2,
		Seed:         1,
	}
}

// Cores returns the total core count.
func (c Config) Cores() int { return c.Nodes * c.CoresPerNode }

// Structural size caps enforced by Validate, the same as the MWSR
// engine's: far above the paper's 64 nodes and 4 cores, they make an
// oversized configuration fail with an error instead of letting
// NewNetwork attempt a multi-gigabyte allocation.
const (
	maxNodes        = 1 << 12
	maxCoresPerNode = 1 << 8
	maxDepth        = 1 << 20 // buffers, set-aside slots, receiver ports
)

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Nodes < 2 || c.Nodes > maxNodes {
		return fmt.Errorf("swmr: node count must be in [2, %d], got %d", maxNodes, c.Nodes)
	}
	if c.CoresPerNode < 1 || c.CoresPerNode > maxCoresPerNode {
		return fmt.Errorf("swmr: cores per node must be in [1, %d], got %d", maxCoresPerNode, c.CoresPerNode)
	}
	if c.RoundTrip < 1 || c.Nodes%c.RoundTrip != 0 {
		return fmt.Errorf("swmr: round trip %d must divide node count %d", c.RoundTrip, c.Nodes)
	}
	if c.Scheme < 0 || c.Scheme >= numSchemes {
		return fmt.Errorf("swmr: invalid scheme %d", int(c.Scheme))
	}
	if c.BufferDepth < 1 || c.BufferDepth > maxDepth {
		return fmt.Errorf("swmr: buffer depth must be in [1, %d], got %d", maxDepth, c.BufferDepth)
	}
	if c.RxPorts < 1 || c.RxPorts > maxDepth {
		return fmt.Errorf("swmr: rx ports must be in [1, %d], got %d", maxDepth, c.RxPorts)
	}
	if c.Scheme == HandshakeSetaside && c.SetasideSize < 1 {
		return fmt.Errorf("swmr: setaside scheme needs SetasideSize >= 1")
	}
	if c.SetasideSize > maxDepth {
		return fmt.Errorf("swmr: setaside size %d exceeds the structural cap %d", c.SetasideSize, maxDepth)
	}
	if c.EjectRate < 1 {
		return fmt.Errorf("swmr: eject rate must be >= 1")
	}
	if math.IsNaN(c.EjectStallProb) || c.EjectStallProb < 0 || c.EjectStallProb >= 1 {
		return fmt.Errorf("swmr: eject stall probability must be in [0,1)")
	}
	return nil
}

// Stats collects SWMR run measurements (the subset of the MWSR statistics
// that applies; SWMR has no token waits).
type Stats struct {
	window sim.Window
	cores  int

	Injected          int64
	InjectedMeasured  int64
	Delivered         int64
	DeliveredInWindow int64
	LocalDelivered    int64

	Launches     int64
	Drops        int64 // NACKed arrivals (port or buffer)
	PortDrops    int64 // subset of Drops due to rx-port contention
	Retransmits  int64
	Reservations int64 // grant round trips performed (reservation scheme)

	Latency *stats.Histogram
	ResWait *stats.Histogram // request->grant wait, reservation only
}

func newStats(w sim.Window, cores int) *Stats {
	return &Stats{
		window:  w,
		cores:   cores,
		Latency: stats.NewHistogram(0),
		ResWait: stats.NewHistogram(0),
	}
}

// Result condenses an SWMR run.
type Result struct {
	Scheme         Scheme
	AvgLatency     float64
	P99Latency     int64
	Throughput     float64
	OfferedLoad    float64
	DropRate       float64
	PortDropRate   float64
	RetransmitRate float64
	AvgReservation float64
	Unfinished     int64
	Delivered      int64
}

func (s *Stats) finish(scheme Scheme) Result {
	mc := float64(s.window.Measure)
	res := Result{
		Scheme:      scheme,
		AvgLatency:  s.Latency.Mean(),
		P99Latency:  s.Latency.Quantile(0.99),
		Throughput:  float64(s.DeliveredInWindow) / mc / float64(s.cores),
		OfferedLoad: float64(s.InjectedMeasured) / mc / float64(s.cores),
		Delivered:   s.Delivered,
	}
	if s.Launches > 0 {
		res.DropRate = float64(s.Drops) / float64(s.Launches)
		res.PortDropRate = float64(s.PortDrops) / float64(s.Launches)
		res.RetransmitRate = float64(s.Retransmits) / float64(s.Launches)
	}
	res.AvgReservation = s.ResWait.Mean()
	var deliveredMeasured int64 = s.Latency.Count()
	res.Unfinished = s.InjectedMeasured - deliveredMeasured
	return res
}
