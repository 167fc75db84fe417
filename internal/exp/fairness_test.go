package exp

import (
	"testing"

	"photon/internal/core"
)

func TestFairnessStudyShape(t *testing.T) {
	rows, table, err := FairnessStudy(core.DHSSetaside, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || tableRows(table) != 5 {
		t.Fatalf("rows %d table %d", len(rows), tableRows(table))
	}
	// The last quadrant (farthest downstream) must gain share when the
	// policy is on.
	last := rows[3]
	if last.SharePolicyOn < last.SharePolicyOff {
		t.Errorf("far quadrant share fell with the policy: %.3f -> %.3f",
			last.SharePolicyOff, last.SharePolicyOn)
	}
	// Shares are a distribution.
	var off, on float64
	for _, r := range rows {
		off += r.SharePolicyOff
		on += r.SharePolicyOn
	}
	if off < 0.99 || off > 1.01 || on < 0.99 || on > 1.01 {
		t.Fatalf("shares do not sum to 1: off %.3f on %.3f", off, on)
	}
	if _, _, err := FairnessStudy(core.TokenSlot, quickOpts()); err == nil {
		t.Error("credit scheme accepted by fairness study")
	}
}
