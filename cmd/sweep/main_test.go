package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweep runs the command in-process and returns its exit status and
// what it wrote.
func sweep(args ...string) (status int, stdout, stderr string) {
	var out, errw bytes.Buffer
	status = run(args, &out, &errw)
	return status, out.String(), errw.String()
}

// TestUsageErrors: a request the command cannot interpret exits 2 with
// the cause named on stderr and nothing on stdout — never a silent choice
// of one study.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "nothing to run"},
		{[]string{"-quick", "-csv"}, "nothing to run"},
		{[]string{"-no-such-flag"}, "not defined: -no-such-flag"},
		{[]string{"-fig", "7"}, `unknown figure "7"`},
		{[]string{"-fig", "8", "-claims"}, "-claims and -fig are mutually exclusive"},
		{[]string{"-workload", "bursty", "-farm", "slo"}, "-farm and -workload are mutually exclusive"},
		{[]string{"-breakdown", "0.1", "-fairness"}, "-breakdown and -fairness are mutually exclusive"},
		{[]string{"-fig", "8", "UR"}, `unexpected argument "UR"`},
		{[]string{"-seed", "minus-one", "-claims"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			status, stdout, stderr := sweep(tc.args...)
			if status != 2 {
				t.Fatalf("exit status %d, want 2 (stderr %q)", status, stderr)
			}
			if stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.want)
			}
		})
	}
}

// TestRunErrors: a well-formed request that cannot run exits 1 with the
// named cause.
func TestRunErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "8", "-pattern", "XX", "-quick"}, `unknown pattern "XX"`},
		{[]string{"-workload", "bursty", "-pattern", "XX", "-quick"}, `unknown pattern "XX"`},
		{[]string{"-workload", "warp(rate=1)", "-quick"}, "warp"},
		{[]string{"-farm", "no-such-grid", "-quick"}, "no-such-grid"},
		{[]string{"-farm-worker", "-farm-grid", "fig8:UR", "-farm-point", "9999", "-quick"}, "9999"},
		// A profile that cannot be written fails before the study runs.
		{[]string{"-fig", "8", "-quick", "-cpuprofile", "/no/such/dir/cpu.prof"}, "/no/such/dir/cpu.prof"},
		{[]string{"-claims", "-memprofile", "/no/such/dir/mem.prof"}, "/no/such/dir/mem.prof"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			status, _, stderr := sweep(tc.args...)
			if status != 1 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stderr %q; want exit 1 naming %q", status, stderr, tc.want)
			}
		})
	}
}

// TestSameSeedSameBytes: a study's stdout is a function of its flags — two
// runs with the same seed are byte-identical, and another seed differs.
func TestSameSeedSameBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick studies three times each")
	}
	for _, args := range [][]string{{"-fig", "8", "-quick"}, {"-workload", "bursty", "-quick"}} {
		status, first, stderr := sweep(args...)
		if status != 0 || first == "" {
			t.Fatalf("sweep %v: exit %d, %d bytes\n%s", args, status, len(first), stderr)
		}
		if _, second, _ := sweep(args...); second != first {
			t.Errorf("sweep %v: two runs with the same seed wrote different stdout", args)
		}
		if _, other, _ := sweep(append(args, "-seed", "2")...); other == first {
			t.Errorf("sweep %v: -seed 2 wrote the same bytes as -seed 1", args)
		}
	}
}

// TestProfileFlags: -cpuprofile and -memprofile leave non-empty pprof
// files behind and do not move a byte of stdout.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick study twice")
	}
	args := []string{"-workload", "bursty", "-quick"}
	_, plain, _ := sweep(args...)
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	status, profiled, stderr := sweep(append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if status != 0 || profiled != plain {
		t.Fatalf("profiled run: exit %d, stdout differs from the plain run: %v\n%s", status, profiled != plain, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", path, err)
		}
	}
}
