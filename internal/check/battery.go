package check

import (
	"fmt"
	"reflect"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// Battery configures one differential verification run. Every (pattern,
// rate) pair gets a single pre-recorded traffic tape that is replayed
// through every scheme, so cross-scheme comparisons are over byte-identical
// offered traffic.
type Battery struct {
	// Schemes under test (default: all of them).
	Schemes []core.Scheme
	// Patterns under test (default: the paper's UR/BC/TOR).
	Patterns []traffic.Pattern
	// Loads returns the load grid for a pattern name.
	Loads func(pattern string) []float64
	// Window is the per-run simulation window.
	Window sim.Window
	// Seed drives tape generation and network stochastics.
	Seed uint64
	// DrainLimit bounds the extra post-window drain before the final
	// audit. Past saturation the backlog never reaches zero; the audit's
	// identities hold regardless.
	DrainLimit int64
}

// QuickBattery is the CI-sized battery: all schemes, the paper's three
// patterns, one load well below saturation, one near it, and one past it,
// over a short window. It finishes in a few seconds.
func QuickBattery(seed uint64) Battery {
	return Battery{
		Schemes:  core.Schemes(),
		Patterns: traffic.PaperPatterns(),
		Loads: func(pattern string) []float64 {
			switch pattern {
			case "TOR":
				return []float64{0.02, 0.08, 0.30}
			default: // UR, BC saturate in the 0.13..0.25 region
				return []float64{0.02, 0.13, 0.30}
			}
		},
		Window:     sim.Window{Warmup: 300, Measure: 1000, Drain: 1000},
		Seed:       seed,
		DrainLimit: 20_000,
	}
}

// FullBattery covers the paper's quick load grids over the standard short
// window — the thorough pre-merge variant (tens of seconds).
func FullBattery(seed uint64) Battery {
	return Battery{
		Schemes:  core.Schemes(),
		Patterns: traffic.PaperPatterns(),
		Loads: func(pattern string) []float64 {
			loads := exp.PaperLoads(pattern, true)
			// Add a firmly past-saturation point; the quick grids stop
			// near the knee.
			return append(append([]float64{}, loads...), 0.35)
		},
		Window:     sim.ShortWindow(),
		Seed:       seed,
		DrainLimit: 60_000,
	}
}

// Check is one cross-cutting verification outcome (differential pairs,
// serial-vs-parallel sweeps).
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// point is what a battery's typed per-point verdict provides to Report.
type point interface {
	// Pass reports whether every per-point check succeeded.
	Pass() bool
	// id names the point: its scheme, its sub-identity within the battery
	// ("pattern@rate", "class@rate", the workload name, ...) and its run
	// digest.
	id() (scheme core.Scheme, name string, digest uint64)
	// failure describes the first failed check of a failing point.
	failure() string
	// row is the point's line of the battery table, matching the
	// layout's headers.
	row() []any
}

// layout is a battery's fixed presentation: its name in the -json
// summary, and its table's title and headers.
type layout struct {
	battery, title string
	headers        []string
}

// Report is the outcome of one battery run: the typed per-point verdicts
// in grid order plus the cross checks. Every battery returns one.
type Report[P point] struct {
	Points []P
	Cross  []Check

	layout layout
}

// Outcome is what a command needs from any battery's report, whatever
// its point type.
type Outcome interface {
	Failures() []string
	Table() *stats.Table
	Summary(seed uint64) Summary
}

// Pass reports whether the whole battery is green.
func (r *Report[P]) Pass() bool { return len(r.Failures()) == 0 }

// Failures returns every failing point and cross check, flattened into
// printable lines.
func (r *Report[P]) Failures() []string {
	var out []string
	for _, p := range r.Points {
		if !p.Pass() {
			scheme, name, _ := p.id()
			out = append(out, fmt.Sprintf("%s %s: %s", scheme, name, p.failure()))
		}
	}
	for _, c := range r.Cross {
		if !c.Pass {
			out = append(out, fmt.Sprintf("%s: %s", c.Name, c.Detail))
		}
	}
	return out
}

// Table renders the per-point verdicts for cmd/verify.
func (r *Report[P]) Table() *stats.Table {
	t := stats.NewTable(r.layout.title, r.layout.headers...)
	for _, p := range r.Points {
		t.AddRow(p.row()...)
	}
	return t
}

// Verdict is one line of a Summary: a point (scheme, sub-identity and
// digest) or a cross check (name only).
type Verdict struct {
	Scheme string `json:"scheme,omitempty"`
	Name   string `json:"name"`
	Digest string `json:"digest,omitempty"`
	Status string `json:"status"` // "pass" or the first failure detail
}

// Summary is the machine-readable pass/fail document of one battery run
// (`verify -json`).
type Summary struct {
	Battery string    `json:"battery"`
	Seed    uint64    `json:"seed"`
	Pass    bool      `json:"pass"`
	Points  []Verdict `json:"points"`
	Cross   []Verdict `json:"cross"`
}

// Summary condenses the report; seed is the battery's base seed.
func (r *Report[P]) Summary(seed uint64) Summary {
	s := Summary{Battery: r.layout.battery, Seed: seed, Pass: r.Pass()}
	for _, p := range r.Points {
		scheme, name, digest := p.id()
		s.Points = append(s.Points, Verdict{
			Scheme: scheme.String(), Name: name,
			Digest: fmt.Sprintf("%016x", digest), Status: status(p.Pass(), p.failure()),
		})
	}
	for _, c := range r.Cross {
		s.Cross = append(s.Cross, Verdict{Name: c.Name, Status: status(c.Pass, c.Detail)})
	}
	return s
}

func status(pass bool, detail string) string {
	if pass {
		return "pass"
	}
	if detail == "" {
		detail = "fail"
	}
	return detail
}

func mark(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// fanOut verifies one point per job on the shared pool (GOMAXPROCS
// workers; a panicking job reports itself instead of crashing the
// battery) and returns the verdicts in job order, or the lowest-index
// error under that job's name.
func fanOut[J, P any](jobs []J, name func(J) string, verify func(J) (P, error)) ([]P, error) {
	points := make([]P, len(jobs))
	errs := exp.Do(len(jobs), 0, func(i int) (err error) {
		points[i], err = verify(jobs[i])
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("check: %s: %w", name(jobs[i]), err)
		}
	}
	return points, nil
}

// replay runs the tape through a fresh network of the given configuration.
func replay(cfg core.Config, w sim.Window, tape *traffic.Tape) (core.Result, *core.Network, error) {
	net, err := core.NewNetwork(cfg, w)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := tape.Run(net)
	return res, net, err
}

// settle audits the network as the window left it, drains it for at most
// limit cycles and audits again: sub-saturation runs reach zero backlog,
// past-saturation runs stay backlogged, and the conservation identities
// must hold either way. It returns the final accounting, the drain's
// error and the first audit failure.
func settle(net *core.Network, limit int64) (acct core.Accounting, drainErr, auditErr error) {
	auditErr = AuditNetwork(net)
	_, drainErr = net.Drain(limit)
	if err := AuditNetwork(net); err != nil && auditErr == nil {
		auditErr = err
	}
	return net.Accounting(), drainErr, auditErr
}

// TapeVerdict is the per-point verdict the tape-replay batteries share
// (Battery and WorkloadBattery embed it in their point reports).
type TapeVerdict struct {
	Scheme core.Scheme

	// Digest is the run fingerprint (identical across the repeat runs when
	// Deterministic).
	Digest uint64
	// Events is the protocol event count folded into the digest.
	Events uint64

	Injected  int64
	Delivered int64
	// Backlog remaining after the bounded post-run drain (nonzero past
	// saturation).
	Backlog int

	// Deterministic: two replays of the tape produced identical
	// core.Result structs (digest included).
	Deterministic bool
	// TapeFaithful: a live-injector run matched the tape replay's digest.
	TapeFaithful bool
	// Conservation holds the auditor's first failure ("" = pass).
	Conservation string

	// Detail carries the first failure description for the report table.
	Detail string
}

// Pass reports whether every per-point check succeeded.
func (v TapeVerdict) Pass() bool {
	return v.Deterministic && v.TapeFaithful && v.Conservation == ""
}

func (v TapeVerdict) failure() string      { return v.Detail }
func (v TapeVerdict) verdict() TapeVerdict { return v }

// replayTwice replays the tape through two fresh networks, records the
// determinism verdict and returns the second network, not yet drained.
func (v *TapeVerdict) replayTwice(cfg core.Config, w sim.Window, tape *traffic.Tape) (*core.Network, error) {
	res1, _, err := replay(cfg, w, tape)
	if err != nil {
		return nil, err
	}
	res2, net, err := replay(cfg, w, tape)
	if err != nil {
		return nil, err
	}
	v.Digest, v.Events = res2.Digest, res2.DigestEvents
	v.Deterministic = reflect.DeepEqual(res1, res2)
	if !v.Deterministic {
		v.Detail = fmt.Sprintf("repeat runs diverged: digest %016x vs %016x", res1.Digest, res2.Digest)
	}
	return net, nil
}

// live records whether a live-injector run reproduced the replays'
// digest: the tape must be a faithful recording.
func (v *TapeVerdict) live(digest uint64) {
	v.TapeFaithful = digest == v.Digest
	if !v.TapeFaithful && v.Detail == "" {
		v.Detail = fmt.Sprintf("live injector digest %016x != tape digest %016x", digest, v.Digest)
	}
}

// settle runs the final conservation audits on net (see settle) and
// records its accounting.
func (v *TapeVerdict) settle(net *core.Network, limit int64) {
	acct, _, auditErr := settle(net, limit)
	if auditErr != nil && v.Conservation == "" {
		v.Conservation = auditErr.Error()
	}
	if v.Conservation != "" && v.Detail == "" {
		v.Detail = v.Conservation
	}
	v.Injected, v.Delivered, v.Backlog = acct.Injected, acct.Delivered, acct.Backlog
}

// differential is the cross-scheme check over one shared tape: every
// scheme must inject exactly the tape's entries, and fully drained
// schemes must deliver exactly the same packet count.
func differential[P interface{ verdict() TapeVerdict }](name string, tape *traffic.Tape, group []P) Check {
	c := Check{Name: name, Pass: true}
	want := int64(len(tape.Entries))
	for _, p := range group {
		if v := p.verdict(); v.Injected != want {
			c.Pass = false
			c.Detail = fmt.Sprintf("%s injected %d, tape holds %d entries", v.Scheme, v.Injected, want)
		}
	}
	a := group[0].verdict()
	for _, p := range group[1:] {
		if v := p.verdict(); a.Backlog == 0 && v.Backlog == 0 && a.Delivered != v.Delivered {
			c.Pass = false
			c.Detail = fmt.Sprintf("%s delivered %d but %s delivered %d on the same tape",
				a.Scheme, a.Delivered, v.Scheme, v.Delivered)
		}
	}
	return c
}

// PointReport is the verification verdict for one (scheme, pattern, rate).
type PointReport struct {
	TapeVerdict
	Pattern string
	Rate    float64
}

func (p PointReport) id() (core.Scheme, string, uint64) {
	return p.Scheme, fmt.Sprintf("%s@%.3f", p.Pattern, p.Rate), p.Digest
}

func (p PointReport) row() []any {
	return []any{p.Scheme.String(), p.Pattern, p.Rate,
		fmt.Sprintf("%016x", p.Digest), p.Events, p.Injected, p.Delivered, p.Backlog,
		mark(p.Deterministic), mark(p.TapeFaithful), mark(p.Conservation == "")}
}

var standardLayout = layout{"standard", "determinism + conservation battery", []string{
	"scheme", "pattern", "rate", "digest", "events", "injected", "delivered", "backlog", "determ", "tape", "conserve"}}

// Run executes the battery: per-point determinism + tape-faithfulness +
// conservation, then the cross-scheme differential comparison and the
// serial-vs-parallel sweep equivalence check.
func Run(b Battery) (*Report[PointReport], error) {
	if len(b.Schemes) == 0 {
		b.Schemes = core.Schemes()
	}
	if len(b.Patterns) == 0 {
		b.Patterns = traffic.PaperPatterns()
	}
	if b.Loads == nil {
		b.Loads = QuickBattery(b.Seed).Loads
	}
	if b.Window.Total() == 0 {
		b.Window = QuickBattery(b.Seed).Window
	}

	// Pre-record one tape per (pattern, rate); the schemes' replays share
	// it read-only, so each tape's jobs are contiguous in scheme order.
	type job struct {
		scheme  core.Scheme
		pattern traffic.Pattern
		rate    float64
		tape    *traffic.Tape
	}
	cfg0 := core.DefaultConfig(b.Schemes[0])
	var jobs []job
	for _, pat := range b.Patterns {
		for _, rate := range b.Loads(pat.Name()) {
			tape, err := traffic.RecordTape(pat, rate, cfg0.Nodes, cfg0.CoresPerNode,
				sim.DeriveSeed(b.Seed, uint64(len(jobs)/len(b.Schemes))), b.Window.Warmup+b.Window.Measure)
			if err != nil {
				return nil, fmt.Errorf("check: recording %s tape at %.3f: %w", pat.Name(), rate, err)
			}
			for _, s := range b.Schemes {
				jobs = append(jobs, job{scheme: s, pattern: pat, rate: rate, tape: tape})
			}
		}
	}

	reports, err := fanOut(jobs,
		func(j job) string { return fmt.Sprintf("%s %s %.3f", j.scheme, j.pattern.Name(), j.rate) },
		func(j job) (PointReport, error) { return verifyPoint(b, j.scheme, j.pattern, j.rate, j.tape) })
	if err != nil {
		return nil, err
	}
	rep := &Report[PointReport]{Points: reports, layout: standardLayout}

	for k := 0; k < len(jobs); k += len(b.Schemes) {
		name := fmt.Sprintf("differential %s @ %.3f", jobs[k].pattern.Name(), jobs[k].rate)
		rep.Cross = append(rep.Cross, differential(name, jobs[k].tape, reports[k:k+len(b.Schemes)]))
	}

	// Serial-vs-parallel sweep equivalence: exp.RunPoints must be a pure
	// function of its inputs regardless of worker count. One
	// representative load per pattern (the grid's median) keeps the
	// mandatory serial leg affordable — whether worker scheduling can
	// perturb a result does not depend on the offered load.
	var points []exp.Point
	for _, pat := range b.Patterns {
		loads := b.Loads(pat.Name())
		rate := loads[len(loads)/2]
		for _, s := range b.Schemes {
			points = append(points, exp.Point{Scheme: s, Pattern: pat, Rate: rate})
		}
	}
	opts := exp.Options{Window: b.Window, Seed: b.Seed}
	serialOpts, parallelOpts := opts, opts
	serialOpts.Parallel = 1
	parallelOpts.Parallel = 8
	serial, err := exp.RunPoints(points, serialOpts)
	if err != nil {
		return nil, err
	}
	parallel, err := exp.RunPoints(points, parallelOpts)
	if err != nil {
		return nil, err
	}
	pc := Check{Name: "serial vs parallel RunPoints", Pass: true}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			pc.Pass = false
			pc.Detail = fmt.Sprintf("point %d (%s %s %.3f): serial digest %016x != parallel digest %016x",
				i, points[i].Scheme, points[i].Pattern.Name(), points[i].Rate,
				serial[i].Digest, parallel[i].Digest)
			break
		}
	}
	rep.Cross = append(rep.Cross, pc)

	// Farm-vs-serial equivalence: the supervised sweep farm (retries,
	// per-point containment, out-of-order completion) must fold the same
	// representative points into the exact grid digest a serial run
	// produces — the property that makes crash/resume regeneration
	// trustworthy.
	fc := Check{Name: "farm vs serial RunPoints (grid digest)", Pass: true}
	fg := farm.Grid{Name: "battery-cross", Points: points, Opts: opts}
	fr, err := farm.Run(fg, farm.Config{Workers: 8})
	switch {
	case err != nil:
		fc.Pass = false
		fc.Detail = fmt.Sprintf("farm run failed: %v", err)
	case !fr.Complete():
		fc.Pass = false
		fc.Detail = fmt.Sprintf("farm quarantined %d of %d points", len(fr.Quarantined()), len(points))
	default:
		ds := make([]uint64, len(serial))
		for i, r := range serial {
			ds[i] = r.Digest
		}
		if want := farm.MergeDigests(ds); fr.GridDigest() != want {
			fc.Pass = false
			fc.Detail = fmt.Sprintf("farm grid digest %016x != serial %016x", fr.GridDigest(), want)
		}
	}
	rep.Cross = append(rep.Cross, fc)
	return rep, nil
}

// verifyPoint runs one (scheme, tape) pair through the per-point checks.
func verifyPoint(b Battery, s core.Scheme, pat traffic.Pattern, rate float64, tape *traffic.Tape) (PointReport, error) {
	p := PointReport{TapeVerdict: TapeVerdict{Scheme: s}, Pattern: pat.Name(), Rate: rate}
	cfg := core.DefaultConfig(s)
	cfg.Seed = b.Seed
	net, err := p.replayTwice(cfg, b.Window, tape)
	if err != nil {
		return p, err
	}

	liveNet, err := core.NewNetwork(cfg, b.Window)
	if err != nil {
		return p, err
	}
	inj, err := traffic.NewInjector(pat, rate, cfg.Nodes, cfg.CoresPerNode, tape.Seed)
	if err != nil {
		return p, err
	}
	p.live(inj.Run(liveNet).Digest)

	p.settle(net, b.DrainLimit)
	return p, nil
}
