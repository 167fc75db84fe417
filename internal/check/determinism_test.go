package check_test

import (
	"reflect"
	"slices"
	"testing"

	"photon/internal/check"
	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/sim"
	"photon/internal/traffic"
)

func detOpts() exp.Options {
	return exp.Options{Window: sim.Window{Warmup: 200, Measure: 600, Drain: 600}, Seed: 13}
}

// TestSchemeDeterminism: for every scheme, running the same (seed,
// pattern, rate) twice must produce identical core.Result structs and
// identical run digests — the bit-reproducibility baseline every
// comparison in EXPERIMENTS.md rests on.
func TestSchemeDeterminism(t *testing.T) {
	for _, s := range core.Schemes() {
		for _, pat := range traffic.PaperPatterns() {
			t.Run(s.String()+"/"+pat.Name(), func(t *testing.T) {
				p := exp.Point{Scheme: s, Pattern: pat, Rate: 0.09}
				a, err := exp.RunPoint(p, detOpts())
				if err != nil {
					t.Fatal(err)
				}
				b, err := exp.RunPoint(p, detOpts())
				if err != nil {
					t.Fatal(err)
				}
				if a.Digest != b.Digest {
					t.Fatalf("digests diverged: %016x vs %016x", a.Digest, b.Digest)
				}
				if a.Digest == 0 || a.DigestEvents == 0 {
					t.Fatalf("degenerate digest %016x over %d events", a.Digest, a.DigestEvents)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("results diverged:\n%+v\n%+v", a, b)
				}
			})
		}
	}
}

// TestDigestDiscriminates: the digest must separate runs that differ in
// seed, scheme, or load — a fingerprint that collides on trivially
// different runs would certify nothing.
func TestDigestDiscriminates(t *testing.T) {
	base := exp.Point{Scheme: core.DHS, Pattern: traffic.UniformRandom{}, Rate: 0.09}
	ref, err := exp.RunPoint(base, detOpts())
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		p    exp.Point
		o    exp.Options
	}{
		{"different seed", base, func() exp.Options { o := detOpts(); o.Seed = 14; return o }()},
		{"different scheme", exp.Point{Scheme: core.DHSSetaside, Pattern: traffic.UniformRandom{}, Rate: 0.09}, detOpts()},
		{"different rate", exp.Point{Scheme: core.DHS, Pattern: traffic.UniformRandom{}, Rate: 0.10}, detOpts()},
	}
	for _, v := range variants {
		res, err := exp.RunPoint(v.p, v.o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest == ref.Digest {
			t.Errorf("%s: digest collided with reference (%016x)", v.name, ref.Digest)
		}
	}
}

// canonicalFunc adapts a func to a core.Tracer that sees only the
// canonical (digest-folded) events.
type canonicalFunc func(core.Event)

func (f canonicalFunc) Observe(e core.Event) {
	if e.Type < core.EvHeadReady {
		f(e)
	}
}

// TestDigestIgnoresObservers: attaching a tracer must not perturb the
// digest (observation must be free of side effects).
func TestDigestIgnoresObservers(t *testing.T) {
	run := func(traced bool) core.Result {
		cfg := core.DefaultConfig(core.GHSSetaside)
		cfg.Seed = 8
		net, err := core.NewNetwork(cfg, sim.Window{Warmup: 100, Measure: 400, Drain: 400})
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			net.SetTracer(canonicalFunc(func(core.Event) {}))
		}
		inj, err := traffic.NewInjector(traffic.BitComplement{}, 0.10, cfg.Nodes, cfg.CoresPerNode, 8)
		if err != nil {
			t.Fatal(err)
		}
		return inj.Run(net)
	}
	plain, traced := run(false), run(true)
	if plain.Digest != traced.Digest {
		t.Fatalf("tracer perturbed the digest: %016x vs %016x", plain.Digest, traced.Digest)
	}
}

// TestBatteryReduced: an end-to-end battery over a scheme pair must come
// back green with sane reporting. (cmd/verify runs the full quick battery;
// this keeps the test suite fast.)
func TestBatteryReduced(t *testing.T) {
	b, err := check.Lookup("standard")
	if err != nil {
		t.Fatal(err)
	}
	g := b.Grid(true)
	g.Schemes = []core.Scheme{core.TokenChannel, core.GHSSetaside}
	g.Drives = slices.DeleteFunc(g.Drives, func(d check.Drive) bool { return d.Pattern.Name() != "UR" })
	g.Window = sim.Window{Warmup: 200, Measure: 600, Drain: 600}
	rep, err := b.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("battery failed:\n%v", rep.Failures())
	}
	if len(rep.Points) != 2*3 {
		t.Fatalf("expected 6 point reports, got %d", len(rep.Points))
	}
	if check.TableRows(rep.Table()) != len(rep.Points) {
		t.Fatal("table row count mismatch")
	}
	for _, p := range rep.Points {
		if p.Acct.Injected == 0 || p.Events == 0 {
			t.Fatalf("degenerate point report: %+v", p)
		}
	}
	// The two schemes replayed the same tapes: injected counts must agree
	// pairwise (the differential guarantee, visible in the report).
	byKey := map[check.Drive][]check.Result{}
	for _, p := range rep.Points {
		byKey[p.Drive] = append(byKey[p.Drive], p)
	}
	for k, group := range byKey {
		for i := 1; i < len(group); i++ {
			if group[i].Acct.Injected != group[0].Acct.Injected {
				t.Fatalf("%v: schemes saw different traffic: %d vs %d", k, group[i].Acct.Injected, group[0].Acct.Injected)
			}
		}
	}
}
