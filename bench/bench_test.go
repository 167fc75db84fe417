package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/core"
)

// runJSON runs the benchmark in-process and decodes its -json document.
func runJSON(t *testing.T, args ...string) document {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-json"), &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
	}
	var doc document
	if err := json.NewDecoder(&stdout).Decode(&doc); err != nil {
		t.Fatalf("bench %v: %v", args, err)
	}
	return doc
}

func listDir(t *testing.T) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(".", func(path string, _ os.DirEntry, err error) error {
		names = append(names, path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// The end-to-end smoke run is shared: two tests read it.
var (
	smokeOnce sync.Once
	smokeDoc  document
	smokeNew  []string // files the run left in the package directory
)

func smoke(t *testing.T) document {
	smokeOnce.Do(func() {
		before := listDir(t)
		smokeDoc = runJSON(t, "-smoke", "-trace", "0")
		after := listDir(t)
		had := map[string]bool{}
		for _, n := range before {
			had[n] = true
		}
		for _, n := range after {
			if !had[n] {
				smokeNew = append(smokeNew, n)
			}
		}
	})
	return smokeDoc
}

func value(t *testing.T, ms []metric, name string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s missing", name)
	return 0
}

// The driver's contract on names and counts, and every workload healthy.
func TestSmokeMetricContract(t *testing.T) {
	doc := smoke(t)
	traced := runJSON(t, "-smoke", "-trace", "1")
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for i, wd := range doc.Workloads {
		if !valid.MatchString(wd.Name) {
			t.Errorf("workload name %q", wd.Name)
		}
		if !wd.Correct || wd.Failed != 0 || wd.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", wd.Name, wd.Correct, wd.Attempted, wd.Failed, wd.Failures)
		}
		td := traced.Workloads[i]
		if !td.Correct || td.Failed != 0 || td.Attempted == 0 {
			t.Errorf("%s traced: correct=%v attempted=%d failed=%d %v", td.Name, td.Correct, td.Attempted, td.Failed, td.Failures)
		}
		if len(wd.EndToEnd) > 16 || len(td.PerLayer) > 128 || len(td.PerLayer) == 0 {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics", wd.Name, len(wd.EndToEnd), len(td.PerLayer))
		}
		seen := map[string]bool{}
		for _, m := range append(append([]metric{}, wd.EndToEnd...), td.PerLayer...) {
			if !valid.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: metric name %q invalid or repeated", wd.Name, m.Name)
			}
			seen[m.Name] = true
		}
		for _, d := range endToEnd {
			if d.gated && value(t, wd.EndToEnd, d.name) <= 0 {
				t.Errorf("%s: gated metric %s is not positive", wd.Name, d.name)
			}
		}
		if v := value(t, td.PerLayer, "core.audit_failures"); v != 0 {
			t.Errorf("%s: %g audit failures", wd.Name, v)
		}
	}
	if len(smokeNew) > 0 {
		t.Errorf("the run left files in the package directory: %v", smokeNew)
	}
}

// Simulated metrics are simulated time and counts: a second run of the
// same seed must reproduce them exactly.
func TestSimulatedMetricsRepeat(t *testing.T) {
	a, b := smoke(t), runJSON(t, "-smoke", "-trace", "0")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Fingerprint != wb.Fingerprint {
			t.Errorf("%s: fingerprint %s then %s", wa.Name, wa.Fingerprint, wb.Fingerprint)
		}
		for _, name := range []string{"sim_avg_latency_cycles", "sim_throughput"} {
			if va, vb := value(t, wa.EndToEnd, name), value(t, wb.EndToEnd, name); va != vb {
				t.Errorf("%s: %s %v then %v", wa.Name, name, va, vb)
			}
		}
	}
}

// Another seed is another set of inputs: different digests, same metrics.
func TestSeedChangesDigestsNotMetricSet(t *testing.T) {
	a := smoke(t).Workloads[0]
	b := runJSON(t, "-smoke", "-trace", "0", "-seed", "2", "-workload", a.Name).Workloads[0]
	if a.Fingerprint == b.Fingerprint {
		t.Errorf("seed 2 reproduced seed 1's simulated outputs (%s)", a.Fingerprint)
	}
	if len(a.EndToEnd) != len(b.EndToEnd) {
		t.Fatalf("%d metrics at seed 1, %d at seed 2", len(a.EndToEnd), len(b.EndToEnd))
	}
	for i := range a.EndToEnd {
		if a.EndToEnd[i].Name != b.EndToEnd[i].Name {
			t.Errorf("metric %d: %s at seed 1, %s at seed 2", i, a.EndToEnd[i].Name, b.EndToEnd[i].Name)
		}
	}
}

// An op that cannot run is counted, and the run goes on.
func TestInvalidOpIsCountedNotFatal(t *testing.T) {
	w, _ := workloadByName("ur-low")
	healthy := w.row
	w.row = func(seed uint64, j int, sz size) ([]op, error) {
		ops, err := healthy(seed, j, sz)
		bad := ops[0]
		bad.key = "invalid/nodes=1"
		bad.point.Mod = func(c *core.Config) { c.Nodes = 1 }
		return append(ops, bad), err
	}
	p, err := setup(w, 1, sizeSmoke)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := p.runRow(0, 0, &scratchDir{})
	if err != nil {
		t.Fatal(err)
	}
	out := p.summarise([]rowResult{rr})
	if out.failed != 1 || out.attempted != len(rr.ops) || out.correct {
		t.Errorf("failed=%d attempted=%d correct=%v, want 1, %d, false", out.failed, out.attempted, out.correct, len(rr.ops))
	}
	if got, want := value(t, out.metrics, "failed_ops_frac"), 1/float64(len(rr.ops)); got != want {
		t.Errorf("failed_ops_frac = %v, want %v", got, want)
	}
	if value(t, out.metrics, "sim_cycles_per_s") <= 0 {
		t.Error("the healthy ops were not measured")
	}
}

// BENCHMARK.json is written by hand; the tables here are what runs.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f := file.Workloads[i]; f.Name != w.name || f.Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, f.Name, w.name)
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(file.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gated here", len(file.EndToEnd), len(gated))
	}
	for i, d := range gated {
		if f := file.EndToEnd[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v here", i, f, d)
		}
	}
	defs := layers
	if len(file.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(file.PerLayer), len(defs))
	}
	for i, d := range defs {
		if f := file.PerLayer[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v here", i, f, d)
		}
	}
}

func TestJudge(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	cps := metricDef{name: "sim_cycles_per_s", better: "higher", bound: 0.10}
	failed, _ := metricByName("failed_ops_frac")
	for _, c := range []struct {
		name string
		d    metricDef
		a, b metric
		want string
	}{
		{"same", cps, metric{Value: 100}, metric{Value: 100}, "ok"},
		{"within the bound", cps, metric{Value: 100}, metric{Value: 92}, "ok"},
		{"slower than the bound", cps, metric{Value: 100}, metric{Value: 85}, "worse"},
		{"faster", cps, metric{Value: 100}, metric{Value: 150}, "ok"},
		{"noisy base", cps, metric{Value: 100, Q1: f(90), Q3: f(110)}, metric{Value: 101}, "unresolved"},
		{"noisy but clear of it", cps, metric{Value: 100, Q1: f(90), Q3: f(110)}, metric{Value: 130, Q1: f(120), Q3: f(140)}, "ok"},
		{"any failure", failed, metric{Value: 0}, metric{Value: 0.01}, "worse"},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cps float64) string {
		doc := document{Seed: 1, Size: "full", Workloads: []workloadDoc{{
			Name: "ur-low", EndToEnd: []metric{{Name: "sim_cycles_per_s", Value: cps, Unit: "cycles/s"}},
		}}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 100e3), write("same.json", 99e3), write("slow.json", 60e3)
	var out, errs bytes.Buffer
	if code := run([]string{"-compare", a, same}, &out, &errs); code != 0 {
		t.Errorf("agreeing runs: exit %d\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, slow}, &out, &errs); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40%% slower run: exit %d\n%s", code, out.String())
	}
}

// A time is expressed at the nominal load latency: unchanged when the host
// showed exactly that, shorter when the host was slower, and by less than
// the probe slowed, since only part of an op waits on memory.
func TestNormalised(t *testing.T) {
	if got := normalised(time.Second, nominalLoadNs, nominalLoadNs); got != 1 {
		t.Errorf("at the nominal latency: %v s, want 1", got)
	}
	slow := normalised(time.Second, 2*nominalLoadNs, 2*nominalLoadNs)
	if slow >= 1 || slow <= 0.5 {
		t.Errorf("on a host twice as slow: %v s, want between 0.5 and 1", slow)
	}
	if ns := hostLoadNs(); ns <= 0 {
		t.Errorf("hostLoadNs = %v", ns)
	}
}

func TestHiPercentile(t *testing.T) {
	for n, want := range map[int]float64{7: 50, 19: 50, 40: 75, 100: 90, 199: 90, 200: 95, 1000: 99} {
		if got := hiPercentile(n); got != want {
			t.Errorf("hiPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}
