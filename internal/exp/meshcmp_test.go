package exp

import "testing"

// TestMeshCompareShape verifies the motivating comparison: the optical
// ring beats the electrical mesh on latency at every load, and the mesh
// saturates while the ring still tracks offered load.
func TestMeshCompareShape(t *testing.T) {
	rows, table, err := MeshCompare([]float64{0.01, 0.09, 0.13}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || tableRows(table) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.RingLatency >= r.MeshLatency {
			t.Errorf("load %.2f: ring latency %.1f not below mesh %.1f", r.Load, r.RingLatency, r.MeshLatency)
		}
	}
	// At 0.13 the mesh is saturated, the ring is not.
	last := rows[2]
	if last.RingThr < 0.12 {
		t.Errorf("ring should carry 0.13: %.4f", last.RingThr)
	}
	if last.MeshThr > 0.115 {
		t.Errorf("mesh should saturate below 0.13: %.4f", last.MeshThr)
	}
}
