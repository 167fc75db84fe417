package core_test

import (
	"testing"

	"photon/internal/core"
	"photon/internal/sim"
)

func TestPresetsAllValidAndRunnable(t *testing.T) {
	for _, p := range core.Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Config.Validate(); err != nil {
				t.Fatalf("preset invalid: %v", err)
			}
			net, err := core.NewNetwork(p.Config, sim.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
			if err != nil {
				t.Fatal(err)
			}
			net.RunCycles(100) // must tick without panicking
		})
	}
}

func TestPresetByName(t *testing.T) {
	if _, ok := core.PresetByName("paper"); !ok {
		t.Fatal("paper preset missing")
	}
	if _, ok := core.PresetByName("nope"); ok {
		t.Fatal("unknown preset resolved")
	}
}
