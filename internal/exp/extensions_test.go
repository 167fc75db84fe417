package exp

import (
	"testing"

	"photon/internal/core"
	"photon/internal/swmr"
)

func TestSWMRStudyShape(t *testing.T) {
	rows, table, err := SWMRStudy([]float64{0.01, 0.02}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || tableRows(table) != 2 {
		t.Fatalf("rows %d table %d", len(rows), tableRows(table))
	}
	byKey := map[[2]interface{}]swmr.Result{}
	for _, r := range rows {
		byKey[[2]interface{}{r.Scheme, r.Load}] = r.Result
	}
	for _, load := range []float64{0.01, 0.02} {
		res := byKey[[2]interface{}{swmr.Reservation, load}]
		hs := byKey[[2]interface{}{swmr.HandshakeSetaside, load}]
		if hs.AvgLatency >= res.AvgLatency {
			t.Errorf("load %.2f: handshake %.1f not below reservation %.1f", load, hs.AvgLatency, res.AvgLatency)
		}
	}
}

func TestScalingStudyShape(t *testing.T) {
	rows, table, err := ScalingStudy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tableRows(table) != 4 {
		t.Fatalf("table rows %d", tableRows(table))
	}
	lat := map[[2]interface{}]float64{}
	for _, r := range rows {
		lat[[2]interface{}{r.RoundTrip, r.Scheme}] = r.Latency
	}
	// At R=32 with 8 credits, Token Slot must be far above DHS+setaside.
	slot := lat[[2]interface{}{32, core.TokenSlot}]
	dhs := lat[[2]interface{}{32, core.DHSSetaside}]
	if slot < 3*dhs {
		t.Errorf("R=32: Token Slot %.1f not clearly above DHS w/ setaside %.1f — the scaling argument should bite", slot, dhs)
	}
	// The handshake scheme's latency grows roughly with flight time.
	d8 := lat[[2]interface{}{8, core.DHSSetaside}]
	if dhs > 8*d8 {
		t.Errorf("DHS w/ setaside degraded from %.1f to %.1f across R=8..32", d8, dhs)
	}
}

func TestMultiFlitStudyShape(t *testing.T) {
	rows, table, err := MultiFlitStudy(core.DHSSetaside, 0.01, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || tableRows(table) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].MsgLatency >= rows[2].MsgLatency {
		t.Errorf("4-flit latency %.1f not above single-flit %.1f", rows[2].MsgLatency, rows[0].MsgLatency)
	}
}
