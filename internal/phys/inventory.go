package phys

// ArbitrationKind distinguishes the two optical arbitration styles of the
// paper: a single relayed token (global) versus a stream of per-cycle token
// slots (distributed).
type ArbitrationKind int

const (
	// GlobalArbitration: one token per channel circulates continuously;
	// only one sender owns the channel per round trip (Token Channel, GHS).
	GlobalArbitration ArbitrationKind = iota
	// DistributedArbitration: the home node emits a token every cycle and
	// the channel is wave-pipelined into back-to-back segments (Token
	// Slot, DHS).
	DistributedArbitration
)

// SchemeHardware captures the hardware-relevant properties of an
// arbitration/flow-control scheme — exactly the information needed to fill
// one row of Table I and to feed the power model.
type SchemeHardware struct {
	Name        string
	Arbitration ArbitrationKind
	// Handshake is true when the scheme needs an ACK/NACK waveguide
	// (GHS, DHS; not Token Channel/Slot, not DHS with circulation).
	Handshake bool
	// Circulation is true when home nodes reinject packets, which requires
	// modulators (not just detectors) on each home's own data channel.
	Circulation bool
	// TokenCreditBits is the width of the arbitration token payload:
	// Token Channel piggybacks a credit count; handshake tokens carry
	// nothing beyond their presence (one wavelength).
	TokenCreditBits int
}

// Inventory is one row of Table I: the optical component budget of a scheme
// on a given network shape.
type Inventory struct {
	Scheme              string
	DataWaveguides      int
	TokenWaveguides     int
	HandshakeWaveguides int
	MicroRings          int
}

// ComponentBudget derives the full optical component inventory for a scheme,
// reproducing the arithmetic of paper §IV-C:
//
//   - data: every node can write every other node's channel, so each of the
//     Nodes channels carries FlitBits wavelengths with one modulator ring
//     per writer and one detector ring per wavelength at the home node —
//     the paper counts 64 rings per wavelength (one per node: 63 writers +
//     1 reader), i.e. Nodes * Nodes * FlitBits rings in total (1024K for
//     the 64-node, 256-bit configuration);
//   - token: one waveguide; each channel's token occupies one wavelength
//     with rings at every node (capture/release), Nodes * Nodes rings
//     (counted inside the data figure by the paper's 1024K round number —
//     we follow the paper and fold token rings into the data budget);
//   - handshake: one extra waveguide (64 wavelengths, one per home) with a
//     modulator at the home and detectors at each sender — 64 rings per
//     wavelength, 4K total, the paper's "0.4% overhead";
//   - circulation: home nodes additionally modulate their own channel:
//     FlitBits modulators per home, 16K rings total, "1.5%".
func ComponentBudget(shape NetworkShape, hw SchemeHardware) Inventory {
	n := shape.Nodes
	inv := Inventory{
		Scheme:          hw.Name,
		DataWaveguides:  n * shape.DataWaveguidesPerChannel(),
		TokenWaveguides: 1,
		// Data rings: one ring per (channel, node, wavelength).
		MicroRings: n * n * shape.FlitBits,
	}
	if hw.Handshake {
		inv.HandshakeWaveguides = 1
		// One wavelength per home; modulator at home + detector at every
		// other node = Nodes rings per wavelength.
		inv.MicroRings += n * n
	}
	if hw.Circulation {
		// Reinjection modulators: FlitBits rings at each home node.
		inv.MicroRings += n * shape.FlitBits
	}
	return inv
}

// Overhead returns the fractional micro-ring overhead of inv relative to a
// baseline inventory (e.g. GHS vs Token Slot gives the paper's 0.4%).
func (inv Inventory) Overhead(base Inventory) float64 {
	if base.MicroRings == 0 {
		return 0
	}
	return float64(inv.MicroRings-base.MicroRings) / float64(base.MicroRings)
}

// StandardSchemes returns the four Table I rows in paper order.
func StandardSchemes() []SchemeHardware {
	return []SchemeHardware{
		{Name: "Token Slot", Arbitration: DistributedArbitration},
		{Name: "GHS", Arbitration: GlobalArbitration, Handshake: true},
		{Name: "DHS", Arbitration: DistributedArbitration, Handshake: true},
		{Name: "DHS-cir", Arbitration: DistributedArbitration, Circulation: true},
	}
}

// TableI computes the complete Table I for a network shape.
func TableI(shape NetworkShape) []Inventory {
	rows := make([]Inventory, 0, 4)
	for _, hw := range StandardSchemes() {
		rows = append(rows, ComponentBudget(shape, hw))
	}
	return rows
}
