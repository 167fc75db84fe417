package phys

import "fmt"

// WavelengthUse labels what a wavelength carries.
type WavelengthUse int

// Wavelength roles.
const (
	UseData WavelengthUse = iota
	UseToken
	UseHandshake
)

func (u WavelengthUse) String() string {
	switch u {
	case UseData:
		return "data"
	case UseToken:
		return "token"
	case UseHandshake:
		return "handshake"
	default:
		return "use?"
	}
}

// WavelengthAssignment maps one wavelength slot of one waveguide to its
// role: which channel (home node) and bit position it carries, or which
// node's token/handshake signal.
type WavelengthAssignment struct {
	Waveguide  int
	Wavelength int // 0..WavelengthsPerWaveguide-1 within the waveguide
	Use        WavelengthUse
}

// AllocationPlan is the complete DWDM layout for a scheme on a shape: the
// physical design document Table I's waveguide counts summarise.
type AllocationPlan struct {
	Assignments []WavelengthAssignment
	// Waveguides is the total number of waveguides used.
	Waveguides int
}

// PlanWavelengths lays out every wavelength of a scheme's interconnect:
// data channels packed 64 wavelengths to a waveguide, the token
// wavelength(s) for every home on a shared token waveguide, and (for
// handshake schemes) one answer wavelength per home on the handshake
// waveguide. It errors if a scheme's signalling cannot fit the DWDM limit
// — e.g. more homes than wavelengths on the shared waveguides.
func PlanWavelengths(shape NetworkShape, hw SchemeHardware) (*AllocationPlan, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	plan := &AllocationPlan{}

	// Data: channel h occupies FlitBits consecutive wavelength slots.
	wg := 0
	slot := 0
	for h := 0; h < shape.Nodes; h++ {
		for bit := 0; bit < shape.FlitBits; bit++ {
			plan.Assignments = append(plan.Assignments, WavelengthAssignment{
				Waveguide: wg, Wavelength: slot, Use: UseData,
			})
			slot++
			if slot == WavelengthsPerWaveguide {
				slot, wg = 0, wg+1
			}
		}
	}
	if slot != 0 {
		wg++
		slot = 0
	}

	// Token waveguide: each home needs one token wavelength (plus credit
	// payload wavelengths for Token Channel). All homes share waveguides.
	perHome := 1 + hw.TokenCreditBits
	tokenSlots := shape.Nodes * perHome
	tokenWGs := (tokenSlots + WavelengthsPerWaveguide - 1) / WavelengthsPerWaveguide
	if tokenWGs > 1 && hw.TokenCreditBits == 0 && shape.Nodes > WavelengthsPerWaveguide {
		return nil, fmt.Errorf("phys: %d homes exceed the %d-wavelength token waveguide", shape.Nodes, WavelengthsPerWaveguide)
	}
	for h := 0; h < shape.Nodes; h++ {
		for k := 0; k < perHome; k++ {
			idx := h*perHome + k
			plan.Assignments = append(plan.Assignments, WavelengthAssignment{
				Waveguide:  wg + idx/WavelengthsPerWaveguide,
				Wavelength: idx % WavelengthsPerWaveguide,
				Use:        UseToken,
			})
		}
	}
	wg += tokenWGs

	// Handshake waveguide: one wavelength per home (§IV-C's single bit).
	if hw.Handshake {
		if shape.Nodes > WavelengthsPerWaveguide {
			return nil, fmt.Errorf("phys: %d homes exceed the %d-wavelength handshake waveguide", shape.Nodes, WavelengthsPerWaveguide)
		}
		for h := 0; h < shape.Nodes; h++ {
			plan.Assignments = append(plan.Assignments, WavelengthAssignment{
				Waveguide: wg, Wavelength: h, Use: UseHandshake,
			})
		}
		wg++
	}

	plan.Waveguides = wg
	return plan, nil
}

// Validate checks the plan's physical consistency: no waveguide carries
// two signals on the same wavelength and no slot exceeds the DWDM limit.
func (p *AllocationPlan) Validate() error {
	seen := map[[2]int]WavelengthUse{}
	for _, a := range p.Assignments {
		if a.Wavelength < 0 || a.Wavelength >= WavelengthsPerWaveguide {
			return fmt.Errorf("phys: wavelength %d outside the DWDM limit", a.Wavelength)
		}
		key := [2]int{a.Waveguide, a.Wavelength}
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("phys: waveguide %d wavelength %d assigned twice (%v and %v)",
				a.Waveguide, a.Wavelength, prev, a.Use)
		}
		seen[key] = a.Use
	}
	return nil
}

// CountByUse tallies assignments per role.
func (p *AllocationPlan) CountByUse() map[WavelengthUse]int {
	out := map[WavelengthUse]int{}
	for _, a := range p.Assignments {
		out[a.Use]++
	}
	return out
}
