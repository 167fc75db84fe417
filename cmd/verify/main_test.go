package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photon/internal/check"
	"photon/internal/stats"
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
// value, exit 2 for the retired streaming switch (the table always
// streams, chrome and flame never do, so there is nothing left to select).
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
