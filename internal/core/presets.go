package core

// Preset names a ready-made configuration from the paper or its reference
// designs, for CLI convenience and documentation.
type Preset struct {
	// Name is the CLI label.
	Name string
	// Config is the full configuration (Scheme set to the preset's
	// subject; override freely).
	Config Config
}

// Presets returns the named configurations.
func Presets() []Preset {
	paper := DefaultConfig(DHSSetaside)

	corona := DefaultConfig(TokenChannel)
	// Corona (ISCA'08): 64 nodes on a 576 mm^2 die, 8-cycle round trip,
	// MWSR crossbar with token arbitration.
	corona.BufferDepth = 8

	bigRing := DefaultConfig(DHSSetaside)
	bigRing.RoundTrip = 16

	smallCmp := DefaultConfig(DHSSetaside)
	smallCmp.Nodes = 16
	smallCmp.RoundTrip = 4
	smallCmp.CoresPerNode = 2

	return []Preset{
		// The paper's evaluation platform: 64 nodes x 4 cores, R=8, 8
		// credits, 4 setaside slots.
		{Name: "paper", Config: paper},
		// Corona-like token-arbitrated MWSR crossbar (the Token Channel
		// baseline's home design).
		{Name: "corona", Config: corona},
		// A 16-cycle round-trip loop (larger die / slower clock): the
		// regime where credit flow control collapses.
		{Name: "bigring", Config: bigRing},
		// A 32-core part: 16 nodes x 2 cores, R=4.
		{Name: "smallcmp", Config: smallCmp},
	}
}

// PresetByName resolves a preset label.
func PresetByName(name string) (Preset, bool) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}
