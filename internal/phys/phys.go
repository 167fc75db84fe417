// Package phys models the silicon-nanophotonic substrate at the component
// level: wavelengths, waveguides, micro-ring resonators, and the optical
// loss budget that determines laser power.
//
// The model follows the technology assumptions of the paper (and of Corona /
// Firefly / the Vantrease MICRO'09 arbitration work it builds on):
//
//   - dense wavelength division multiplexing (DWDM) with up to 64
//     wavelengths carried per waveguide;
//   - micro-ring resonators used as modulators, detectors and switches, one
//     ring per (wavelength, function, node) combination;
//   - an off-chip laser, with on-chip losses paid in dB along each light
//     path and a non-linearity ceiling of 30 mW per waveguide;
//   - thermal tuning of every ring to hold resonance across a 20 K on-die
//     temperature range at 1 uW per ring per K.
//
// The package is purely analytical — the cycle-accurate behaviour of light
// lives in internal/ring — but it is the ground truth for Table I
// (component budgets) and the static half of Figure 12 (laser and heating
// power).
package phys

import "fmt"

// Technology constants shared across the design (paper §II and §IV-C).
const (
	// WavelengthsPerWaveguide is the DWDM limit assumed by the paper: "an
	// optical waveguide can carry 64 wavelengths".
	WavelengthsPerWaveguide = 64

	// ClockGHz is the system clock of the target CMP (5 GHz on a 400 mm^2
	// die, paper §V-A).
	ClockGHz = 5.0

	// DieAreaMM2 is the die area used for waveguide length estimates.
	DieAreaMM2 = 400.0
)

// NetworkShape describes the macroscopic layout of the interconnect: how
// many nodes share the ring and how wide each data channel is. The paper's
// configuration is 256 cores on 64 nodes (4-way concentration) with
// single-flit packets of 256 bits — Table I's 256 data waveguides and 1024K
// micro-rings pin the channel width down to 4 waveguides x 64 wavelengths.
type NetworkShape struct {
	Nodes        int // nodes attached to the ring (64)
	CoresPerNode int // concentration degree (4)
	FlitBits     int // data channel width in bits = wavelengths (256)
}

// DefaultShape returns the paper's 256-core, 64-node configuration.
func DefaultShape() NetworkShape {
	return NetworkShape{Nodes: 64, CoresPerNode: 4, FlitBits: 256}
}

// Validate reports a descriptive error when the shape is degenerate.
func (s NetworkShape) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("phys: network needs at least 2 nodes, got %d", s.Nodes)
	}
	if s.CoresPerNode < 1 {
		return fmt.Errorf("phys: cores per node must be >= 1, got %d", s.CoresPerNode)
	}
	if s.FlitBits < 1 {
		return fmt.Errorf("phys: flit width must be >= 1 bit, got %d", s.FlitBits)
	}
	return nil
}

// Cores returns the total core count.
func (s NetworkShape) Cores() int { return s.Nodes * s.CoresPerNode }

// DataWaveguidesPerChannel returns how many physical waveguides one MWSR
// data channel occupies: FlitBits wavelengths packed 64 to a waveguide.
func (s NetworkShape) DataWaveguidesPerChannel() int {
	return ceilDiv(s.FlitBits, WavelengthsPerWaveguide)
}

// RingCircumferenceCM estimates the serpentine/loop length of the global
// ring from the die area: a ring hugging the perimeter of a square die of
// the configured area. For the 400 mm^2 die this gives 8 cm, the figure
// commonly used in nanophotonic NoC loss budgets.
func (s NetworkShape) RingCircumferenceCM() float64 {
	side := sqrtMM(DieAreaMM2) // mm
	return 4 * side / 10       // perimeter in cm
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// sqrtMM is a tiny Newton square root so the package stays free of math
// imports it barely needs; inputs are die areas (hundreds of mm^2).
func sqrtMM(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x / 2
	for i := 0; i < 40; i++ {
		g = (g + x/g) / 2
	}
	return g
}
