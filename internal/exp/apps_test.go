package exp

import (
	"testing"

	"photon/internal/core"
)

// TestLatencyReductionAllRegress: when every app regresses, the maximum
// reduction is the smallest regression, not a zero no app measured.
func TestLatencyReductionAllRegress(t *testing.T) {
	rows := []AppResult{
		{App: "a", Latency: map[core.Scheme]float64{core.TokenSlot: 10, core.DHS: 12}},
		{App: "b", Latency: map[core.Scheme]float64{core.TokenSlot: 10, core.DHS: 11}},
		{App: "c", Latency: map[core.Scheme]float64{core.TokenSlot: 0, core.DHS: 5}},
	}
	avg, max := LatencyReduction(rows, core.TokenSlot, core.DHS)
	if avg != -15 || max != -10 {
		t.Fatalf("LatencyReduction = avg %v, max %v; want -15, -10", avg, max)
	}
}
