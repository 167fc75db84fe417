// Package power estimates the power and energy of the nanophotonic network
// under each scheme, reproducing Figure 12: a static half (laser power
// derived from the optical loss budget, thermal ring tuning) that dominates,
// plus a dynamic half (E/O and O/E conversion at 158 fJ/bit, and an
// Orion-2.0-style analytical electrical router model).
//
// The paper's qualitative findings this model reproduces:
//
//   - laser + ring heating dominate every scheme's total;
//   - global-arbitration schemes (Token Channel, GHS) pay more laser power
//     for their relayed token — it is tapped by every node each loop, so
//     its path carries the full chain of capture-ring drops, and Token
//     Channel's credit payload multiplies the token wavelengths;
//   - the handshake waveguide adds only a negligible slice;
//   - circulation adds heating for its 16K reinjection rings but
//     essentially no per-packet energy (passive imprinting).
package power

import (
	"fmt"

	"photon/internal/phys"
)

// EnergyPerBitJ is the E/O or O/E conversion energy (158 fJ/b, paper §V-C
// citing Batten et al.).
const EnergyPerBitJ = 158e-15

// RouterModel is an Orion-2.0-style per-router energy model: static
// leakage plus per-flit buffer write, buffer read, crossbar traversal and
// arbitration energies. Coefficients approximate a 45 nm 2-stage router
// with a 256-bit datapath.
type RouterModel struct {
	StaticW      float64 // leakage + clock per router
	BufWriteJ    float64 // per flit
	BufReadJ     float64 // per flit
	CrossbarJ    float64 // per flit
	ArbitrationJ float64 // per flit
}

// DefaultRouterModel returns the coefficients used in the evaluation.
func DefaultRouterModel() RouterModel {
	return RouterModel{
		StaticW:      0.080,
		BufWriteJ:    60e-15 * 256, // per-bit write energy x flit width
		BufReadJ:     40e-15 * 256,
		CrossbarJ:    80e-15 * 256,
		ArbitrationJ: 2e-12,
	}
}

// PerFlitJ is the total dynamic router energy for one flit traversal.
func (r RouterModel) PerFlitJ() float64 {
	return r.BufWriteJ + r.BufReadJ + r.CrossbarJ + r.ArbitrationJ
}

// Model bundles everything needed to evaluate a scheme's power.
type Model struct {
	Shape   phys.NetworkShape
	Laser   phys.LaserModel
	Thermal phys.ThermalTuning
	Router  RouterModel
	// ClockHz converts per-cycle activity into rates.
	ClockHz float64
}

// DefaultModel returns the paper's technology point.
func DefaultModel() Model {
	return Model{
		Shape:   phys.DefaultShape(),
		Laser:   phys.DefaultLaserModel(),
		Thermal: phys.DefaultThermalTuning(),
		Router:  DefaultRouterModel(),
		ClockHz: phys.ClockGHz * 1e9,
	}
}

// Activity is the measured traffic a power estimate is evaluated at.
type Activity struct {
	// PacketsPerCycle is the network-wide delivered packet rate.
	PacketsPerCycle float64
	// ReinjectionsPerCycle is the home-reinjection rate (DHS-cir).
	ReinjectionsPerCycle float64
	// RetransmissionsPerCycle is the NACK-triggered resend rate.
	RetransmissionsPerCycle float64
}

// Breakdown is one bar of Figure 12(a).
type Breakdown struct {
	LaserW  float64
	HeatW   float64
	EOW     float64
	OEW     float64
	RouterW float64
}

// TotalW sums the components.
func (b Breakdown) TotalW() float64 { return b.LaserW + b.HeatW + b.EOW + b.OEW + b.RouterW }

// Evaluate computes the power breakdown of a scheme at a given activity.
func (m Model) Evaluate(hw phys.SchemeHardware, act Activity) (Breakdown, error) {
	if err := m.Shape.Validate(); err != nil {
		return Breakdown{}, err
	}
	inv := phys.ComponentBudget(m.Shape, hw)
	length := m.Shape.RingCircumferenceCM()
	n := m.Shape.Nodes

	// --- Laser ---
	// Data wavelengths: each passes the capture/modulator rings of every
	// node on its channel.
	perData, err := m.Laser.PerWavelengthMW(length, n)
	if err != nil {
		return Breakdown{}, fmt.Errorf("power: data path: %w", err)
	}
	dataLambda := n * m.Shape.FlitBits
	laserMW := perData * float64(dataLambda)

	// Token wavelengths: distributed tokens travel at most one loop from
	// their home past each node's detector once; the single relayed token
	// of global arbitration is actively *polled* by every candidate holder
	// each loop, so its path pays the polling-tap loss at every node —
	// this is why Token Channel and GHS burn more laser power than the
	// distributed schemes, and Token Channel (whose token also carries a
	// multi-bit credit payload) the most of all.
	tokenLambda := 1 + hw.TokenCreditBits
	var perToken float64
	if hw.Arbitration == phys.GlobalArbitration {
		perToken, err = m.Laser.PolledWavelengthMW(length, n, n)
	} else {
		perToken, err = m.Laser.PerWavelengthMW(length, n)
	}
	if err != nil {
		return Breakdown{}, fmt.Errorf("power: token path: %w", err)
	}
	laserMW += perToken * float64(tokenLambda) * float64(n)

	// Handshake wavelengths: one per home node on one shared waveguide.
	if hw.Handshake {
		perHs, err := m.Laser.PerWavelengthMW(length, n)
		if err != nil {
			return Breakdown{}, fmt.Errorf("power: handshake path: %w", err)
		}
		laserMW += perHs * float64(n)
	}

	// --- Thermal tuning ---
	heatW := m.Thermal.HeatingWatts(inv.MicroRings)

	// --- E/O and O/E conversion ---
	bitsPerPacket := float64(m.Shape.FlitBits)
	launches := act.PacketsPerCycle + act.RetransmissionsPerCycle + act.ReinjectionsPerCycle
	bitRate := launches * bitsPerPacket * m.ClockHz
	eoW := bitRate * EnergyPerBitJ
	// Every launched packet is also detected once (drops are detected too,
	// then discarded), plus handshake pulses (1 bit each) — negligible but
	// accounted.
	oeW := bitRate * EnergyPerBitJ
	if hw.Handshake {
		oeW += act.PacketsPerCycle * 1 * m.ClockHz * EnergyPerBitJ
	}

	// --- Electrical routers ---
	routerW := m.Router.StaticW*float64(n) +
		act.PacketsPerCycle*m.ClockHz*m.Router.PerFlitJ()

	return Breakdown{
		LaserW:  laserMW / 1000,
		HeatW:   heatW,
		EOW:     eoW,
		OEW:     oeW,
		RouterW: routerW,
	}, nil
}

// EnergyPerPacketNJ is one bar of Figure 12(b): total power divided by the
// delivered packet rate.
func (m Model) EnergyPerPacketNJ(b Breakdown, act Activity) float64 {
	if act.PacketsPerCycle <= 0 {
		return 0
	}
	packetsPerSecond := act.PacketsPerCycle * m.ClockHz
	return b.TotalW() / packetsPerSecond * 1e9
}
