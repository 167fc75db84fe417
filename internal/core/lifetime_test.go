package core_test

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"photon/internal/check"
	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/ptrace"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// TestMain runs this package's suite with every released packet poisoned
// instead of recycled, so a test — or the engine itself — that reads a
// packet after its last holder let go fails loudly instead of reading the
// packet's next life. Recycling proper is held to the poisoned engine by
// TestPoisonedPacketsChangeNothing, measured by the zero-alloc guards (both
// switch poison themselves), and runs under every other package's goldens
// and batteries. Benchmarks measure the engine as shipped.
func TestMain(m *testing.M) {
	flag.Parse()
	core.SetPoisonPackets(flag.Lookup("test.bench").Value.String() == "")
	os.Exit(m.Run())
}

// snapshots is a tracer that copies each packet by value at its first event
// of one type — how a test reads a packet's timestamps without keeping the
// engine's pointer past the point the engine is done with it.
type snapshots struct {
	on   core.EventType
	byID map[uint64]router.Packet
}

func snapshotOn(net *core.Network, on core.EventType) *snapshots {
	s := &snapshots{on: on, byID: map[uint64]router.Packet{}}
	net.SetTracer(s)
	return s
}

func (s *snapshots) Observe(e core.Event) {
	if e.Type != s.on || e.Packet == nil {
		return
	}
	if _, seen := s.byID[e.Packet.ID]; !seen {
		s.byID[e.Packet.ID] = *e.Packet
	}
}

// TestPoisonedPacketsChangeNothing is the lifetime differential: per scheme,
// a fault-free run past saturation and a chaos run (data, pulse and token
// faults, recovery on) give the same digest and the same ledger whether
// released packets are recycled or poisoned, and the ledger audits clean at
// every cycle. A consumer, closure or later phase that reads a released
// packet sees a recycled life in one leg and poison in the other, and the
// two legs part.
func TestPoisonedPacketsChangeNothing(t *testing.T) {
	chaos := fault.Config{Enabled: true, Warmup: chaosWindow.Warmup}
	for _, cl := range []fault.Class{fault.DataLoss, fault.PulseLoss, fault.TokenLoss} {
		chaos = chaos.SetClass(cl, fault.ClassConfig{Rate: 0.02, Burst: 2})
	}
	legs := []struct {
		name     string
		fc       fault.Config
		recovery bool
		load     float64
	}{
		{"saturated", fault.Config{}, false, 0.30},
		{"chaos", chaos, true, 0.10},
	}
	for _, s := range core.Schemes() {
		for _, leg := range legs {
			t.Run(s.String()+"/"+leg.name, func(t *testing.T) {
				run := func(poison bool) (core.Result, core.Accounting) {
					defer core.SetPoisonPackets(core.SetPoisonPackets(poison))
					cfg := core.DefaultConfig(s)
					cfg.Seed = 29
					cfg.Fault = leg.fc
					cfg.Recovery.Enabled = leg.recovery
					net, err := core.NewNetwork(cfg, chaosWindow)
					if err != nil {
						t.Fatal(err)
					}
					inj, err := traffic.NewInjector(traffic.UniformRandom{}, leg.load, cfg.Nodes, cfg.CoresPerNode, 29)
					if err != nil {
						t.Fatal(err)
					}
					for cyc := int64(0); cyc < chaosWindow.Warmup+chaosWindow.Measure+chaosWindow.Drain; cyc++ {
						if cyc < chaosWindow.Warmup+chaosWindow.Measure {
							inj.Tick(net)
						}
						net.Step()
						if err := check.AuditNetwork(net); err != nil {
							t.Fatalf("poison %v, cycle %d: %v", poison, cyc, err)
						}
					}
					return net.Result(), net.Accounting()
				}
				res, acct := run(false)
				pres, pacct := run(true)
				if res.Digest != pres.Digest {
					t.Errorf("digest %016x recycling, %016x poisoned", res.Digest, pres.Digest)
				}
				if !reflect.DeepEqual(acct, pacct) {
					t.Errorf("ledgers differ:\n recycling %+v\n poisoned  %+v", acct, pacct)
				}
				if leg.fc.Enabled && acct.FaultsInjected == 0 {
					t.Error("chaos leg injected no faults")
				}
			})
		}
	}
}

// TestLeakedHolderIsReported: a holder nobody releases — what a transition
// that skipped its release leaves behind — keeps its packet live after the
// network has drained, and the audit names the scheme and the leak.
func TestLeakedHolderIsReported(t *testing.T) {
	cfg := core.DefaultConfig(core.GHSSetaside)
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(4, 9, router.ClassData, 0)
	id := net.Inject(8, 9, router.ClassData, 0)
	net.RunCycles(int64(cfg.RouterPipeline) + 1) // into its output queue
	net.LeakHolder(id)
	if left, err := net.Drain(1000); err != nil {
		t.Fatalf("drain left %d: %v", left, err)
	}
	err = check.AuditNetwork(net)
	if err == nil {
		t.Fatal("a leaked holder passed the audit")
	}
	for _, want := range []string{"ghs-setaside", "holders 1 != outstanding 0", "1 live packets"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("audit error %q lacks %q", err, want)
		}
	}
}

// TestRetireIsLastEvent holds EvRetire to the packet lifetime it reports.
// Per scheme — fault-free, under pulse loss with recovery on (lost ACKs
// leave duplicates in flight past delivery), and with stalling receivers
// (NACKs and retransmissions) — every injected id retires exactly once,
// no record of the id follows its retirement, and once the network has
// drained every id has retired.
func TestRetireIsLastEvent(t *testing.T) {
	pulse := fault.Config{Enabled: true, Warmup: chaosWindow.Warmup}.
		SetClass(fault.PulseLoss, fault.ClassConfig{Rate: 0.02, Burst: 2})
	legs := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"fault-free", func(*core.Config) {}},
		{"pulse-loss", func(c *core.Config) { c.Fault, c.Recovery.Enabled = pulse, true }},
		{"eject-stall", func(c *core.Config) { c.BufferDepth, c.EjectStallProb = 2, 0.5 }},
	}
	for _, s := range core.Schemes() {
		for _, leg := range legs {
			t.Run(s.String()+"/"+leg.name, func(t *testing.T) {
				cfg := core.DefaultConfig(s)
				cfg.Seed = 29
				leg.mod(&cfg)
				net, err := core.NewNetwork(cfg, chaosWindow)
				if err != nil {
					t.Fatal(err)
				}
				inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.10, cfg.Nodes, cfg.CoresPerNode, 29)
				if err != nil {
					t.Fatal(err)
				}
				tap := &ptrace.Tap{}
				net.SetTracer(tap)
				inj.Run(net)
				if left, err := net.Drain(60_000); err != nil {
					t.Fatalf("drain left %d: %v", left, err)
				}

				injected := make(map[uint64]bool)
				retired := make(map[uint64]bool)
				var late int // records of a packet after its last holder let go
				var timeouts int
				for _, r := range tap.Records {
					if r.Meta {
						continue
					}
					if r.Type == core.EvTimeout {
						timeouts++
					}
					switch {
					case retired[r.ID]:
						if late++; late == 1 {
							t.Errorf("packet %d: %s at cycle %d after its retirement", r.ID, r.Type, r.Cycle)
						}
					case r.Type == core.EvInject:
						injected[r.ID] = true
					case r.Type == core.EvRetire:
						retired[r.ID] = true
					}
				}
				if late > 0 {
					t.Errorf("%d records followed their packet's retirement", late)
				}
				if len(injected) == 0 {
					t.Fatal("nothing injected; test is vacuous")
				}
				if spec, _ := core.LookupProtocol(s); spec.Handshake && leg.name == "pulse-loss" && timeouts == 0 {
					t.Fatal("no retransmit timer fired; the duplicate paths went unexercised")
				}
				for id := range injected {
					if !retired[id] {
						t.Fatalf("packet %d never retired after the drain", id)
					}
				}
				if len(retired) != len(injected) {
					t.Fatalf("%d packets retired, %d injected", len(retired), len(injected))
				}
			})
		}
	}
}

// packetObjects is a tracer that counts the distinct Packet objects the
// engine hands it. It keeps each pointer only as a map key and never reads
// through it after the call.
type packetObjects map[*router.Packet]struct{}

func (s packetObjects) Observe(e core.Event) {
	if e.Packet != nil {
		s[e.Packet] = struct{}{}
	}
}

// TestQueuedPacketsAreDescriptors: past its knee, a GHS network's output
// queues hold many times more packets than it ever builds. A queued packet
// behind its queue's head is a descriptor, so the Packet objects the run
// uses are bounded by the injection pipelines, one head and the retained
// copies per queue, the flits in flight and the home buffers, however deep
// the backlog grows. Recycled packets are reused, not counted twice.
func TestQueuedPacketsAreDescriptors(t *testing.T) {
	defer core.SetPoisonPackets(core.SetPoisonPackets(false)) // count recycled objects once
	cfg := core.DefaultConfig(core.GHS)
	cfg.Seed = 29
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 1 << 40, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.30, cfg.Nodes, cfg.CoresPerNode, 29)
	if err != nil {
		t.Fatal(err)
	}
	objects := packetObjects{}
	net.SetTracer(objects)
	for range 3000 {
		inj.Tick(net)
		net.Step()
	}
	bound := cfg.Cores()*(cfg.RouterPipeline+1+1+max(1, cfg.SetasideSize)) +
		cfg.Nodes*(cfg.RoundTrip+2+cfg.BufferDepth)
	queued := net.Accounting().Queued
	if queued < 10*bound {
		t.Fatalf("only %d packets queued, want a backlog of at least %d: the run is not past the knee", queued, 10*bound)
	}
	if len(objects) > bound {
		t.Errorf("%d Packet objects for a backlog of %d queued packets, want at most %d", len(objects), queued, bound)
	}
}
