package exp

import (
	"testing"

	"photon/internal/core"
)

// TestFig10Shape runs the trace experiment at quick fidelity and checks the
// paper's application-level claims: the handshake schemes with
// setaside/circulation beat their baselines on average, and the biggest
// wins appear on the bursty NAS benchmarks.
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep is slow")
	}
	global, distributed, ta, tb, err := Fig10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(global) != 13 || len(distributed) != 13 {
		t.Fatalf("app rows %d/%d", len(global), len(distributed))
	}
	if tableRows(ta) != 13 || tableRows(tb) != 13 {
		t.Fatal("tables incomplete")
	}

	avg, max := LatencyReduction(global, core.TokenChannel, core.GHSSetaside)
	if avg < 5 {
		t.Errorf("GHS w/ setaside avg latency reduction %.0f%% vs Token Channel — paper reports ~42%%", avg)
	}
	if max < 30 {
		t.Errorf("GHS w/ setaside max latency reduction %.0f%% — paper reports up to 59%%", max)
	}
	avgD, _ := LatencyReduction(distributed, core.TokenSlot, core.DHSSetaside)
	if avgD < 0 {
		t.Errorf("DHS w/ setaside avg reduction %.1f%% negative — paper reports ~4%%", avgD)
	}

	// Basic DHS must lose to Token Slot on the bursty NAS traces (the
	// HOL-blocking observation of §V-B).
	for _, r := range distributed {
		if r.App == "nas-cg" {
			if r.Latency[core.DHS] <= r.Latency[core.TokenSlot] {
				t.Errorf("nas-cg: basic DHS %.1f should lose to Token Slot %.1f",
					r.Latency[core.DHS], r.Latency[core.TokenSlot])
			}
		}
	}
}

// TestIPCStudyShape: closed-loop IPC must never punish the handshake
// scheme, and the mean gain must be positive (paper: +15% for GHS+SB vs
// Token Channel, +1.3% for DHS+SB vs Token Slot; our Token Channel
// baseline is stronger, so the margins are smaller — see EXPERIMENTS.md).
func TestIPCStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop sweep is slow")
	}
	rows, table, err := IPCStudy(core.TokenSlot, core.DHSSetaside, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 || tableRows(table) != 13 {
		t.Fatal("incomplete IPC rows")
	}
	if g := MeanIPCGain(rows); g < 0 {
		t.Errorf("mean IPC gain %.2f%% negative", g)
	}
	for _, r := range rows {
		if r.BaselineIPC <= 0 || r.HandshakeIPC <= 0 {
			t.Errorf("%s: missing IPC values", r.App)
		}
		if r.GainPct < -1 {
			t.Errorf("%s: handshake loses %.1f%% IPC", r.App, r.GainPct)
		}
	}
}
