package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photon/internal/exp"
)

// sweep runs the command in-process and returns its exit status and
// what it wrote.
func sweep(args ...string) (status int, stdout, stderr string) {
	var out, errw bytes.Buffer
	status = run(args, &out, &errw)
	return status, out.String(), errw.String()
}

// pinned reads the committed `-quick -seed 1` stdout of a study. The
// files under testdata/ were written by binaries built at the commit
// before the catalog existed (sweep -fig/-claims/..., apps, powersim,
// swmrsim; slo.txt is `sweep -workload` over the three presets) and are
// not regenerated: they are the proof that the move changed no output.
func pinned(t *testing.T, study string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", strings.ReplaceAll(study, ":", "_")+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPinnedStdout runs every catalog row through run() and compares
// bytes with what the row's old invocation printed, then checks the row's
// claims (claims_test.go) on the stdout it produced. A row added without
// a pinned file fails here. The rows that need no parameter run as one
// `-study a,b,…` list, so each distinct point is simulated once, and
// print one after another in list order; the rest run alone with the
// parameters their pinned files were generated with.
func TestPinnedStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study at quick fidelity")
	}
	quick := []string{"-quick", "-seed", "1"}
	tracePath := filepath.Join(t.TempDir(), "cg.phtr")
	traceGen := append([]string{"-study", "trace-gen", "-workload", "nas-cg", "-cycles", "5000", "-o", tracePath}, quick...)
	alone := map[string][]string{
		"workload":  append([]string{"-study", "workload", "-workload", "bursty"}, quick...),
		"trace-gen": traceGen,
		// The gen -> dump round trip: dump reads what gen wrote.
		"trace-dump": append([]string{"-study", "trace-dump", "-o", tracePath}, quick...),
	}
	var list []string
	for _, s := range exp.Studies() {
		if alone[s.Name] == nil {
			list = append(list, s.Name)
		}
	}
	runArgs := func(t *testing.T, args []string) string {
		t.Helper()
		status, stdout, stderr := sweep(args...)
		if status != 0 {
			t.Fatalf("sweep %v: exit %d\n%s", args, status, stderr)
		}
		// The pinned trace files were written as cg.phtr in the working directory.
		return strings.ReplaceAll(stdout, tracePath, "cg.phtr")
	}
	combined := runArgs(t, append([]string{"-study", strings.Join(list, ",")}, quick...))
	for _, s := range exp.Studies() {
		t.Run(s.Name, func(t *testing.T) {
			want := pinned(t, s.Name)
			var stdout string
			if args := alone[s.Name]; args != nil {
				if s.Name == "trace-dump" {
					runArgs(t, traceGen)
				}
				stdout = runArgs(t, args)
			} else {
				stdout = combined[:min(len(want), len(combined))]
				if stdout != want {
					// Report the row's own bytes, and keep the rows after
					// it aligned, by running it alone.
					stdout = runArgs(t, append([]string{"-study", s.Name}, quick...))
					if !strings.HasPrefix(combined, stdout) {
						t.Errorf("%s prints other bytes in a -study list than alone", s.Name)
					}
				}
				combined = strings.TrimPrefix(combined, stdout)
			}
			if stdout != want {
				t.Errorf("sweep -study %s: stdout differs from the pinned bytes\n--- got\n%s--- want\n%s", s.Name, stdout, want)
			}
			for _, c := range claims {
				if c.row == s.Name {
					t.Run("claim:"+c.name, func(t *testing.T) { c.check(t, stdout) })
				}
			}
		})
	}
	if combined != "" {
		t.Errorf("the -study list printed %d bytes past its last row", len(combined))
	}
}

// TestPinnedFilesHaveRows is TestPinnedStdout's converse: every file
// under testdata/ is the pinned stdout of some catalog row, so a file
// left behind by a deleted study fails here instead of going stale.
func TestPinnedFilesHaveRows(t *testing.T) {
	rows := map[string]bool{}
	for _, s := range exp.Studies() {
		rows[strings.ReplaceAll(s.Name, ":", "_")+".txt"] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata/*.txt: %d files, %v", len(files), err)
	}
	for _, path := range files {
		if !rows[filepath.Base(path)] {
			t.Errorf("%s is the pinned stdout of no catalog row", path)
		}
	}
}

// TestList: -list prints one line per catalog row.
func TestList(t *testing.T) {
	status, stdout, stderr := sweep("-list")
	if status != 0 {
		t.Fatalf("exit %d\n%s", status, stderr)
	}
	for _, s := range exp.Studies() {
		if !strings.Contains(stdout, "\n"+s.Name+" ") {
			t.Errorf("-list does not show %s", s.Name)
		}
	}
	for _, want := range []string{"results/fig8_ur.txt", "-load=0.11", "-workload -o -cycles", "Table I"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-list does not show %q", want)
		}
	}
}

// TestUsageErrors: a request the command cannot interpret exits 2 with
// the cause named on stderr and nothing on stdout — never a silent choice
// of one study. The mode flags the catalog replaced (-fig, -claims,
// -fairness, -breakdown) are gone, not aliased.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "nothing to run"},
		{[]string{"-quick", "-csv"}, "nothing to run"},
		{[]string{"-no-such-flag"}, "not defined: -no-such-flag"},
		{[]string{"-fig", "7"}, "not defined: -fig"},
		{[]string{"-fig", "8", "-claims"}, "not defined: -fig"},
		{[]string{"-fig", "8", "UR"}, "not defined: -fig"},
		{[]string{"-claims"}, "not defined: -claims"},
		{[]string{"-breakdown", "0.1", "-fairness"}, "not defined: -breakdown"},
		{[]string{"-fairness"}, "not defined: -fairness"},
		{[]string{"-seed", "minus-one", "-claims"}, "invalid value"},
		{[]string{"-study", "fig8:UR", "UR"}, `unexpected argument "UR"`},
		{[]string{"-study", "no-such-study"}, `unknown study "no-such-study" (known: fig2b, fig8:UR, `},
		{[]string{"-study", "fig8:XX", "-quick"}, `unknown study "fig8:XX"`},
		// A -study list: known, distinct names, and parameters every
		// listed row reads.
		{[]string{"-study", "fig8:UR,no-such-study"}, `unknown study "no-such-study"`},
		{[]string{"-study", "fig8:UR,,claims"}, `-study "fig8:UR,,claims" has an empty element`},
		{[]string{"-study", "fig8:UR,"}, `-study "fig8:UR," has an empty element`},
		{[]string{"-study", "fig8:UR,claims,fig8:UR"}, "-study lists fig8:UR twice"},
		{[]string{"-study", "fig12,multiflit,claims", "-load", "0.1"}, "-study claims does not read -load"},
		{[]string{"-study", "fig8:UR", "-farm", "fig8:UR"}, "-farm and -study are mutually exclusive"},
		{[]string{"-study", "claims", "-list"}, "-study and -list are mutually exclusive"},
		// A parameter flag the selected row does not read.
		{[]string{"-study", "fig8:UR", "-pattern", "BC"}, "-study fig8:UR does not read -pattern"},
		{[]string{"-study", "swmr", "-load", "0.1", "-cycles", "9"}, "-study swmr does not read -cycles, -load"},
		{[]string{"-workload", "bursty", "-farm", "slo"}, "-farm slo does not read -workload"},
		{[]string{"-list", "-o", "x.phtr"}, "-list does not read -o"},
		// The subprocess-shard path is gone, not aliased.
		{[]string{"-farm-worker", "-farm-grid", "fig8:UR", "-farm-point", "9999", "-quick"}, "not defined: -farm-worker"},
		{[]string{"-farm", "fig8:UR", "-quick", "-farm-shards"}, "not defined: -farm-shards"},
		// A farm flag without -farm, or one -farm cannot honour.
		{[]string{"-list", "-resume"}, "-resume needs -farm"},
		{[]string{"-study", "fig2b", "-quick", "-manifest", "x.jsonl", "-farm-workers", "-2"}, "-farm-workers needs -farm"},
		{[]string{"-farm", "fig2b", "-quick", "-resume", "-farm-workers", "-7"}, "-resume needs -manifest"},
		{[]string{"-farm", "fig2b", "-quick", "-fsync"}, "-fsync needs -manifest"},
		{[]string{"-farm", "fig2b", "-quick", "-farm-workers", "-2"}, "-farm-workers must be >= 0, got -2"},
		// The farm runs each point once: the retry budget and the
		// per-point deadline are gone, not aliased.
		{[]string{"-study", "fig2b", "-quick", "-manifest", "x.jsonl", "-max-attempts", "-4", "-farm-workers", "-2"}, "not defined: -max-attempts"},
		{[]string{"-farm", "fig2b", "-quick", "-resume", "-max-attempts", "-1", "-farm-workers", "-7", "-farm-timeout", "-5s"}, "not defined: -max-attempts"},
		{[]string{"-farm", "fig2b", "-quick", "-max-attempts", "0"}, "not defined: -max-attempts"},
		{[]string{"-farm", "fig2b", "-quick", "-farm-timeout", "-5s"}, "not defined: -farm-timeout"},
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
		{[]string{"-study", "workload", "-workload", "bursty", "-pattern", "XX", "-quick"}, `unknown pattern "XX"`},
		{[]string{"-study", "workload", "-workload", "warp(rate=1)", "-quick"}, "warp"},
		{[]string{"-study", "workload", "-quick"}, "empty workload spec"},
		{[]string{"-farm", "no-such-grid", "-quick"}, "no-such-grid"},
		{[]string{"-farm", "fig10", "-quick"}, `unknown grid "fig10"`},
		// A span of no cycles is refused before any file is created.
		{[]string{"-study", "trace-gen", "-workload", "nas-cg", "-cycles", "-5", "-o", "/no/such/dir/cg.phtr"}, "trace: span of -5 cycles"},
		{[]string{"-study", "trace-gen", "-workload", "nas-cg", "-cycles", "0", "-o", "/no/such/dir/cg.phtr"}, "trace: span of 0 cycles"},
		{[]string{"-study", "analyze", "-cycles", "0"}, "trace: span of 0 cycles"},
		{[]string{"-study", "analyze", "-cycles", "-5"}, "trace: span of -5 cycles"},
		{[]string{"-study", "trace-gen", "-workload", "no-such-app"}, "no-such-app"},
		{[]string{"-study", "trace-gen", "-workload", "nas-cg", "-o", "/no/such/dir/cg.phtr"}, "/no/such/dir/cg.phtr"},
		{[]string{"-study", "trace-dump", "-o", "/no/such/dir/cg.phtr"}, "/no/such/dir/cg.phtr"},
		{[]string{"-study", "trace-dump", "-o", "main.go"}, "reading trace main.go"},
		// A profile that cannot be written fails before the study runs.
		{[]string{"-study", "fig8:UR", "-quick", "-cpuprofile", "/no/such/dir/cpu.prof"}, "/no/such/dir/cpu.prof"},
		{[]string{"-study", "claims", "-memprofile", "/no/such/dir/mem.prof"}, "/no/such/dir/mem.prof"},
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

// TestSameSeedSameBytes: a study's stdout is a function of its flags.
// Seed 1 reproducing the pinned bytes is TestPinnedStdout (bytes written
// by another process); here another seed must differ from them.
func TestSameSeedSameBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick studies")
	}
	for study, args := range map[string][]string{
		"fig8:UR":  {"-study", "fig8:UR", "-quick", "-seed", "2"},
		"workload": {"-study", "workload", "-workload", "bursty", "-quick", "-seed", "2"},
	} {
		status, other, stderr := sweep(args...)
		if status != 0 || other == "" {
			t.Fatalf("sweep %v: exit %d, %d bytes\n%s", args, status, len(other), stderr)
		}
		if other == pinned(t, study) {
			t.Errorf("sweep %v: -seed 2 wrote the same bytes as -seed 1", args)
		}
	}
}

// TestProfileFlags: -cpuprofile and -memprofile leave non-empty pprof
// files behind and do not move a byte of stdout: the profiled run prints
// what an unprofiled run of the same study prints.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick study twice")
	}
	args := []string{"-study", "workload", "-workload", "bursty", "-quick"}
	_, plain, _ := sweep(args...)
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	status, profiled, stderr := sweep(append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if status != 0 || plain == "" || profiled != plain {
		t.Fatalf("profiled run: exit %d, stdout differs from the plain run: %v\n%s", status, profiled != plain, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", path, err)
		}
	}
}

// TestFarmStdoutIsSameBytes: a farm run's stdout is a function of the grid
// and the seed, so two runs cmp equal; the wall-clock time goes to stderr.
func TestFarmStdoutIsSameBytes(t *testing.T) {
	var outs [2]string
	for i := range outs {
		status, stdout, stderr := sweep("-farm", "fig12", "-quick")
		if status != 0 {
			t.Fatalf("exit %d\n%s", status, stderr)
		}
		if !strings.Contains(stderr, "sweep: farm took ") {
			t.Errorf("stderr %q does not report the farm's wall time", stderr)
		}
		outs[i] = stdout
	}
	if outs[0] != outs[1] {
		t.Fatalf("two farm runs printed different stdout:\n%s\n---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "\nfarm: 7 ran, 0 resumed; grid digest ") {
		t.Fatalf("stdout lacks the farm summary line:\n%s", outs[0])
	}
}
