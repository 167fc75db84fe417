package photon_test

import (
	"bytes"
	"testing"

	"photon"
)

// TestFacadeEndToEnd drives the whole public API surface the way the
// README's quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	scheme, err := photon.ParseScheme("dhs-setaside")
	if err != nil {
		t.Fatal(err)
	}
	cfg := photon.DefaultConfig(scheme)
	net, err := photon.NewNetwork(cfg, photon.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := photon.NewInjector(photon.UniformRandom{}, 0.05, cfg.Nodes, cfg.CoresPerNode, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := inj.Run(net)
	if res.Delivered == 0 || res.AvgLatency <= 0 || res.Throughput <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestFacadeSchemes(t *testing.T) {
	if len(photon.Schemes()) != 7 {
		t.Fatalf("expected the paper's 7 schemes, got %d", len(photon.Schemes()))
	}
	if photon.TokenChannel.Global() != true || photon.DHSCirculation.Circulating() != true {
		t.Fatal("scheme property re-exports broken")
	}
}

func TestFacadeTraceAndCMP(t *testing.T) {
	app, err := photon.AppByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	cfg := photon.DefaultConfig(photon.TokenSlot)
	tr := app.Synthesize(cfg.Cores(), cfg.Nodes, 2000, 9)

	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	net, err := photon.NewNetwork(cfg, photon.Window{Warmup: 0, Measure: 2000, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := photon.ReplayTrace(tr, net, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d packets stuck", res.Unfinished)
	}

	// Closed loop.
	net2, err := photon.NewNetwork(photon.DefaultConfig(photon.DHSSetaside),
		photon.Window{Warmup: 0, Measure: 1 << 20, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	params := photon.DefaultCMPParams()
	cmp, err := photon.NewCMP(params, net2)
	if err != nil {
		t.Fatal(err)
	}
	out := cmp.Run(2000)
	if out.IPC <= 0 || out.IPC > float64(params.IssueWidth) {
		t.Fatalf("implausible IPC %.3f", out.IPC)
	}
}

func TestFacadeHardwareAndPower(t *testing.T) {
	rows := photon.TableI(photon.DefaultShape())
	if len(rows) != 4 {
		t.Fatalf("Table I rows = %d", len(rows))
	}
	model := photon.DefaultPowerModel()
	bd, err := model.Evaluate(photon.GHS.Hardware(), photon.PowerActivity{PacketsPerCycle: 10})
	if err != nil {
		t.Fatal(err)
	}
	if bd.TotalW() <= 0 {
		t.Fatal("zero power")
	}
}

func TestFacadeSWMR(t *testing.T) {
	if len(photon.SWMRSchemes()) != 3 {
		t.Fatalf("SWMR schemes = %d", len(photon.SWMRSchemes()))
	}
	cfg := photon.DefaultSWMRConfig(photon.SWMRHandshakeSetaside)
	net, err := photon.NewSWMRNetwork(cfg, photon.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	rng := photon.NewRNG(3)
	for cyc := 0; cyc < 500; cyc++ {
		if rng.Bernoulli(0.3) {
			net.Inject(rng.Intn(cfg.Cores()), rng.Intn(cfg.Nodes), photon.ClassData, 0)
		}
		net.Step()
	}
	net.Drain(10_000)
	if net.Stats().Delivered != net.Stats().Injected {
		t.Fatalf("SWMR lost packets: %d of %d", net.Stats().Delivered, net.Stats().Injected)
	}
}

func TestFacadePatterns(t *testing.T) {
	rng := photon.NewRNG(1)
	for _, name := range []string{"UR", "BC", "TOR", "TP", "NBR"} {
		p, err := photon.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if d := p.Dest(0, 64, rng); d < 0 || d >= 64 {
			t.Fatalf("%s: dest %d out of range", name, d)
		}
	}
}
