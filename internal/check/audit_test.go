package check_test

import (
	"strings"
	"testing"

	"photon/internal/check"
	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/traffic"
)

func auditWindow() sim.Window {
	return sim.Window{Warmup: 200, Measure: 800, Drain: 800}
}

// runAndAudit drives one configured point and audits it mid-run, after the
// window, and after a bounded extra drain.
func runAndAudit(t *testing.T, cfg core.Config, pat traffic.Pattern, rate float64) core.Accounting {
	t.Helper()
	net, err := core.NewNetwork(cfg, auditWindow())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(pat, rate, cfg.Nodes, cfg.CoresPerNode, 17)
	if err != nil {
		t.Fatal(err)
	}
	w := net.Window()
	for cyc := int64(0); cyc < w.Warmup+w.Measure; cyc++ {
		inj.Tick(net)
		net.Step()
		// The identities hold at every cycle, not just at drain end; spot
		// check mid-run to catch transient double counting.
		if cyc%251 == 0 {
			if err := check.AuditNetwork(net); err != nil {
				t.Fatalf("mid-run audit at cycle %d: %v", cyc, err)
			}
		}
	}
	for cyc := int64(0); cyc < w.Drain; cyc++ {
		net.Step()
	}
	if err := check.AuditNetwork(net); err != nil {
		t.Fatalf("post-window audit: %v", err)
	}
	net.Drain(30_000)
	if err := check.AuditNetwork(net); err != nil {
		t.Fatalf("post-drain audit: %v", err)
	}
	return net.Accounting()
}

// TestConservationAcrossLoads: the auditor must pass for every scheme at a
// low load, near saturation, and firmly past saturation (where the drain
// cannot empty the network).
func TestConservationAcrossLoads(t *testing.T) {
	loads := []struct {
		name string
		rate float64
	}{
		{"low", 0.02},
		{"near-saturation", 0.13},
		{"past-saturation", 0.35},
	}
	for _, s := range core.Schemes() {
		for _, l := range loads {
			t.Run(s.String()+"/"+l.name, func(t *testing.T) {
				cfg := core.DefaultConfig(s)
				cfg.Seed = 9
				a := runAndAudit(t, cfg, traffic.UniformRandom{}, l.rate)
				if a.Injected == 0 {
					t.Fatal("no traffic injected")
				}
				if l.name == "low" && a.Outstanding != 0 {
					t.Fatalf("low load failed to drain: %d outstanding", a.Outstanding)
				}
			})
		}
	}
}

// TestConservationUnderReceiverStalls: heavy ejection stalls force the
// drop/NACK/retransmit path (handshake), the circulation path (DHS-cir)
// and deep setaside usage — the hard cases for packet accounting.
func TestConservationUnderReceiverStalls(t *testing.T) {
	for _, s := range []core.Scheme{core.GHS, core.GHSSetaside, core.DHS, core.DHSSetaside, core.DHSCirculation} {
		t.Run(s.String(), func(t *testing.T) {
			cfg := core.DefaultConfig(s)
			cfg.Seed = 23
			cfg.BufferDepth = 1
			cfg.EjectStallProb = 0.6
			a := runAndAudit(t, cfg, traffic.UniformRandom{}, 0.08)
			if s.Circulating() {
				if a.Circulations == 0 {
					t.Fatal("stress run exercised no circulations")
				}
			} else if a.Drops == 0 {
				t.Fatal("stress run exercised no drops")
			}
		})
	}
}

// TestConservationBoundedQueues: with a bounded output queue the rejected
// packets must balance the ledger through QueueRejected.
func TestConservationBoundedQueues(t *testing.T) {
	cfg := core.DefaultConfig(core.TokenSlot)
	cfg.Seed = 5
	cfg.QueueCap = 2
	a := runAndAudit(t, cfg, traffic.Tornado{}, 0.30)
	if a.QueueRejected == 0 {
		t.Fatal("bounded queue at past-saturation load rejected nothing")
	}
}

// TestAuditDetectsCorruption: the auditor must actually reject broken
// ledgers — every identity is exercised by corrupting one counter.
func TestAuditDetectsCorruption(t *testing.T) {
	cfg := core.DefaultConfig(core.DHSSetaside)
	cfg.Seed = 3
	net, err := core.NewNetwork(cfg, auditWindow())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.10, cfg.Nodes, cfg.CoresPerNode, 3)
	if err != nil {
		t.Fatal(err)
	}
	inj.Run(net)
	net.Drain(30_000)
	good := net.Accounting()
	if err := check.Audit(good); err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name    string
		mutate  func(*core.Accounting)
		keyword string
	}{
		{"lost packet", func(a *core.Accounting) { a.Injected++ }, "injected"},
		{"phantom delivery", func(a *core.Accounting) { a.Delivered++ }, "injected"},
		{"broken backlog sum", func(a *core.Accounting) { a.Backlog++ }, "backlog"},
		{"phantom launch", func(a *core.Accounting) { a.Launches++ }, "launches"},
		{"channel ledger", func(a *core.Accounting) { a.Channels[0].Ejected++ }, "channel 0"},
		{"drop mismatch", func(a *core.Accounting) { a.Drops++ }, "drops"},
		{"scheme shape", func(a *core.Accounting) { a.Circulations++ }, "circulat"},
		{"skipped release", func(a *core.Accounting) { a.Holders++ }, "packet holders"},
		{"live at quiescence", func(a *core.Accounting) { a.LivePackets++ }, "leaked packets"},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			bad := good
			bad.Channels = append([]core.ChannelAccounting(nil), good.Channels...)
			c.mutate(&bad)
			err := check.Audit(bad)
			if err == nil {
				t.Fatal("corrupted ledger passed the audit")
			}
			if !strings.Contains(err.Error(), c.keyword) {
				t.Fatalf("violation message %q lacks keyword %q", err, c.keyword)
			}
		})
	}
}
