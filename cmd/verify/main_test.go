package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"photon/internal/check"
	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/ptrace"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// verify runs the command in-process and returns its exit status and
// what it wrote.
func verify(args ...string) (status int, stdout, stderr string) {
	var out, errw bytes.Buffer
	status = run(args, &out, &errw)
	return status, out.String(), errw.String()
}

// stubBattery replaces the battery runner for one test.
func stubBattery(t *testing.T, f func(mode string, seed uint64, quick bool) (check.Outcome, error)) {
	t.Helper()
	orig := battery
	battery = f
	t.Cleanup(func() { battery = orig })
}

// TestUsageErrors: more than one mode flag, or a flag that qualifies a
// mode without that mode, is a usage error (exit 2) naming both flags —
// never a silent choice of one battery.
func TestUsageErrors(t *testing.T) {
	stubBattery(t, func(mode string, _ uint64, _ bool) (check.Outcome, error) {
		t.Errorf("battery %q ran despite a usage error", mode)
		return nil, fmt.Errorf("unreachable")
	})
	cases := []struct {
		args []string
		want []string // substrings of the message
	}{
		{[]string{"-chaos", "-twin", "-quick"}, []string{"-twin", "-chaos", "mutually exclusive"}},
		{[]string{"-workloads", "-chaos"}, []string{"-workloads", "-chaos"}},
		{[]string{"-twin", "-workloads"}, []string{"-twin", "-workloads"}},
		{[]string{"-trace", "-twin", "-quick"}, []string{"-trace", "-twin"}},
		// The wall-clock bench mode moved to bench/: its flags are unknown.
		{[]string{"-bench", "-chaos"}, []string{"not defined: -bench"}},
		{[]string{"-trace", "-bench"}, []string{"not defined: -bench"}},
		{[]string{"-gate"}, []string{"not defined: -gate"}},
		{[]string{"-quick", "-baseline", "x.json"}, []string{"not defined: -baseline"}},
		{[]string{"-bench", "-tolerance", "0.1"}, []string{"not defined: -bench"}},
		{[]string{"-chaos", "-gate"}, []string{"not defined: -gate"}},
		{[]string{"-bench", "-trace-stream"}, []string{"not defined: -bench"}},
		{[]string{"-trace-scheme", "ghs"}, []string{"-trace-scheme needs -trace"}},
		{[]string{"-quick", "-trace-pattern", "BC"}, []string{"-trace-pattern needs -trace"}},
		{[]string{"-trace-load", "0.2"}, []string{"-trace-load needs -trace"}},
		{[]string{"-trace-format", "flame"}, []string{"-trace-format needs -trace"}},
		{[]string{"-trace-out", "x"}, []string{"-trace-out needs -trace"}},
		// One attribution path: the table always streams, so the switch is gone.
		{[]string{"-chaos", "-trace-stream"}, []string{"not defined: -trace-stream"}},
		// An output flag is never dropped in silence: -csv and -json exclude
		// each other, and -trace writes neither.
		{[]string{"-quick", "-csv", "-json"}, []string{"-csv", "-json", "mutually exclusive"}},
		{[]string{"-trace", "-json"}, []string{"-json", "-trace"}},
		{[]string{"-trace", "-csv"}, []string{"-csv", "-trace"}},
		{[]string{"-no-such-flag"}, []string{"no-such-flag"}},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			status, stdout, stderr := verify(tc.args...)
			if status != 2 {
				t.Fatalf("exit status %d, want 2 (stderr %q)", status, stderr)
			}
			if stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr %q does not mention %q", stderr, w)
				}
			}
		})
	}
}

// TestTraceErrors: a bad -trace request, or an unwritable profile path,
// fails before simulating anything, with the named cause: exit 1 for a bad
// value, exit 2 for the retired streaming switch (every format streams,
// so there is nothing left to select).
func TestTraceErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		status int
		want   string
	}{
		{"scheme", []string{"-trace", "-trace-scheme", "warp-drive"}, 1, `unknown scheme "warp-drive"`},
		{"pattern", []string{"-trace", "-trace-pattern", "XX"}, 1, `unknown pattern "XX"`},
		{"format", []string{"-trace", "-trace-format", "svg"}, 1, `unknown trace format "svg"`},
		{"stream needs table", []string{"-trace", "-trace-stream", "-trace-format", "chrome"}, 2, "not defined: -trace-stream"},
		// A profile that cannot be written fails the same way, in any mode.
		{"cpuprofile path", []string{"-trace", "-cpuprofile", "/no/such/dir/cpu.prof"}, 1, "/no/such/dir/cpu.prof"},
		{"memprofile path", []string{"-quick", "-memprofile", "/no/such/dir/mem.prof"}, 1, "/no/such/dir/mem.prof"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, stdout, stderr := verify(tc.args...)
			if status != tc.status || stdout != "" || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit %d naming %q", status, stdout, stderr, tc.status, tc.want)
			}
		})
	}
}

// tracePoint is the small point the -trace output tests run: the default
// setaside scheme (so spans carry setaside instants) at a light load.
var tracePoint = struct {
	scheme core.Scheme
	load   float64
	seed   uint64
}{core.DHSSetaside, 0.03, 7}

// batchTrace is the test-side oracle of verify -trace: tracePoint simulated
// as exp.RunPoint builds it, with a batch Tap armed and the record stream
// assembled in one go after the run.
func batchTrace(t *testing.T) *ptrace.TraceResult {
	t.Helper()
	opts := exp.QuickOptions()
	opts.Seed = tracePoint.seed
	cfg := core.DefaultConfig(tracePoint.scheme)
	cfg.Seed = opts.Seed
	net, err := core.NewNetwork(cfg, opts.Window)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, tracePoint.load, cfg.Nodes, cfg.CoresPerNode, opts.Seed+0x9E37)
	if err != nil {
		t.Fatal(err)
	}
	tap := &ptrace.Tap{}
	net.SetTracer(tap)
	res := inj.Run(net)
	want, err := exp.RunPoint(exp.Point{Scheme: tracePoint.scheme, Pattern: traffic.UniformRandom{}, Rate: tracePoint.load}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != want.Digest {
		t.Fatalf("oracle digest %016x != exp.RunPoint's %016x: the oracle no longer builds the traced point", res.Digest, want.Digest)
	}
	tr, err := ptrace.Assemble(tap.Records)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// traceArgs are verify's flags for tracePoint in the given format.
func traceArgs(format string) []string {
	return []string{"-trace", "-quick", "-seed", fmt.Sprint(tracePoint.seed),
		"-trace-scheme", tracePoint.scheme.String(), "-trace-load", fmt.Sprint(tracePoint.load), "-trace-format", format}
}

// TestTraceMatchesBatch holds the streamed -trace exports to the batch
// oracle: flame output byte for byte (it is a sum over spans), and the
// chrome array event for event, in any order (the stream writes spans as
// they flush, the batch in injection order).
func TestTraceMatchesBatch(t *testing.T) {
	tr := batchTrace(t)

	var local, remote ptrace.Attribution
	for _, s := range tr.Spans {
		if s.Local {
			local.AddSpan(s, false)
		} else {
			remote.AddSpan(s, false)
		}
	}
	var want bytes.Buffer
	if err := ptrace.WriteFlame(&want, local, remote, fmt.Sprintf("%s-UR@%.2f", tracePoint.scheme, tracePoint.load)); err != nil {
		t.Fatal(err)
	}
	status, flame, stderr := verify(traceArgs("flame")...)
	if status != 0 || flame != want.String() {
		t.Fatalf("flame: exit %d (%s)\n got\n%s want\n%s", status, stderr, flame, want.String())
	}

	want.Reset()
	ct := ptrace.NewChromeTrace(&want)
	for _, s := range tr.Spans {
		ct.Span(s)
	}
	for _, r := range append(tr.Tokens, tr.Faults...) {
		ct.Meta(r)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	status, chrome, stderr := verify(traceArgs("chrome")...)
	if status != 0 {
		t.Fatalf("chrome: exit %d (%s)", status, stderr)
	}
	sorted := func(doc []byte) []string {
		var events []json.RawMessage
		if err := json.Unmarshal(doc, &events); err != nil {
			t.Fatalf("chrome output is not a JSON array: %v", err)
		}
		out := make([]string, len(events))
		for i, e := range events {
			out[i] = string(e)
		}
		sort.Strings(out)
		return out
	}
	got, batch := sorted([]byte(chrome)), sorted(want.Bytes())
	if len(batch) == 0 || !slices.Equal(got, batch) {
		t.Fatalf("chrome: streamed %d events, batch %d; the multisets differ", len(got), len(batch))
	}
}

// TestMain runs verify itself, not the tests, when the test binary is
// given arguments after "--", and then reports the process's peak resident
// set (its /proc VmHWM line) on stderr, so TestTraceMemoryBounded can
// measure a run in a process of its own. The child's rusage Maxrss cannot
// serve: Linux carries the high-water mark of the parent's address space
// across the vfork and exec that start the child, and the test process
// itself can be large.
func TestMain(m *testing.M) {
	flag.Parse()
	if args := flag.Args(); len(args) > 0 {
		status := run(args, os.Stdout, os.Stderr)
		if b, err := os.ReadFile("/proc/self/status"); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.HasPrefix(line, "VmHWM:") {
					fmt.Fprintln(os.Stderr, line)
				}
			}
		}
		os.Exit(status)
	}
	os.Exit(m.Run())
}

// TestTraceMemoryBounded: every -trace format streams, so the default
// quick point's peak RSS stays near the table's ~14 MB instead of the
// ~300 MB (chrome) and ~270 MB (flame) that holding every record and span
// took.
func TestTraceMemoryBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads VmHWM from /proc")
	}
	if testing.Short() {
		t.Skip("traces the default quick point")
	}
	for _, format := range []string{"chrome", "flame"} {
		cmd := exec.Command(os.Args[0], "--", "-trace", "-quick", "-trace-format", format, "-trace-out", os.DevNull)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", format, err, stderr.String())
		}
		var kib int64
		if _, err := fmt.Sscanf(stderr.String(), "VmHWM: %d kB", &kib); err != nil {
			t.Fatalf("%s: no VmHWM line on stderr (%v): %q", format, err, stderr.String())
		}
		if kib > 64<<10 {
			t.Errorf("%s: peak RSS %d MiB, want at most 64 MiB", format, kib>>10)
		}
	}
}

// failing is a battery outcome with one failing point and one failing
// cross check.
type failing struct{}

func (failing) Failures() []string {
	return []string{"dhs UR@0.130: synthetic point failure", "cross leg: synthetic cross failure"}
}

func (failing) Table() *stats.Table {
	t := stats.NewTable("synthetic battery", "scheme", "verdict")
	t.AddRow("dhs", "FAIL")
	return t
}

func (failing) Summary(seed uint64) check.Summary {
	return check.Summary{
		Battery: "standard", Seed: seed,
		Points: []check.Verdict{{Scheme: "dhs", Name: "UR@0.130", Digest: "00000000000000ff", Status: "synthetic point failure"}},
		Cross:  []check.Verdict{{Name: "cross leg", Status: "synthetic cross failure"}},
	}
}

// TestFailingBatteryExitsNonZero: a red battery exits 1 in text and JSON
// modes alike, and both name what failed.
func TestFailingBatteryExitsNonZero(t *testing.T) {
	stubBattery(t, func(string, uint64, bool) (check.Outcome, error) { return failing{}, nil })

	status, stdout, _ := verify("-quick")
	if status != 1 {
		t.Fatalf("text mode exit %d, want 1", status)
	}
	for _, want := range []string{"FAIL  cross leg  (synthetic cross failure)", "FAIL: 2 violation(s)", "  - dhs UR@0.130: synthetic point failure"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("text output missing %q:\n%s", want, stdout)
		}
	}

	status, stdout, _ = verify("-quick", "-json", "-seed", "9")
	if status != 1 {
		t.Fatalf("json mode exit %d, want 1", status)
	}
	var sum check.Summary
	if err := json.Unmarshal([]byte(stdout), &sum); err != nil {
		t.Fatalf("failing -json output does not parse: %v\n%s", err, stdout)
	}
	if sum.Pass || sum.Seed != 9 || sum.Points[0].Status != "synthetic point failure" {
		t.Errorf("failing summary lost its verdicts: %+v", sum)
	}

	stubBattery(t, func(string, uint64, bool) (check.Outcome, error) { return nil, fmt.Errorf("harness broke") })
	if status, _, stderr := verify("-chaos"); status != 1 || !strings.Contains(stderr, "harness broke") {
		t.Errorf("battery error: exit %d, stderr %q", status, stderr)
	}
}

// TestQuickBatteries drives the real batteries through the command: the
// determinism leg (same seed ⇒ byte-identical stdout on two runs), and
// `-quick -json` round-tripping into check.Summary with the point count
// the text footer prints.
func TestQuickBatteries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick batteries")
	}
	for _, args := range [][]string{{"-chaos", "-quick"}, {"-workloads", "-quick", "-csv"}, {"-workloads", "-quick", "-json"}} {
		status, first, stderr := verify(args...)
		if status != 0 {
			t.Fatalf("verify %v: exit %d\n%s%s", args, status, first, stderr)
		}
		if _, second, _ := verify(args...); second != first {
			t.Errorf("verify %v: two runs with the same seed wrote different stdout", args)
		}
	}

	status, doc, stderr := verify("-quick", "-json")
	if status != 0 {
		t.Fatalf("verify -quick -json: exit %d\n%s", status, stderr)
	}
	var sum check.Summary
	if err := json.Unmarshal([]byte(doc), &sum); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if !sum.Pass || sum.Battery != "standard" || sum.Seed != 1 || len(sum.Points) == 0 {
		t.Errorf("summary header: battery %q seed %d pass %v, %d points", sum.Battery, sum.Seed, sum.Pass, len(sum.Points))
	}
	for _, v := range sum.Points {
		if v.Status != "pass" || v.Scheme == "" || len(v.Digest) != 16 {
			t.Errorf("point %+v in a passing summary", v)
		}
	}
	status, text, stderr := verify("-quick")
	footer := fmt.Sprintf("PASS: %d points, %d cross checks\n", len(sum.Points), len(sum.Cross))
	if status != 0 || !strings.HasSuffix(text, footer) {
		t.Errorf("verify -quick: exit %d, output does not end in %q\n%s", status, footer, stderr)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile leave non-empty pprof
// files behind and do not move a byte of stdout.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick battery twice")
	}
	args := []string{"-workloads", "-quick"}
	_, plain, _ := verify(args...)
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	status, profiled, stderr := verify(append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if status != 0 || profiled != plain {
		t.Fatalf("profiled run: exit %d, stdout differs from the plain run: %v\n%s", status, profiled != plain, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", path, err)
		}
	}
}
