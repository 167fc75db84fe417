package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// photosim runs the command in-process and returns its exit status and
// what it wrote.
func photosim(args ...string) (status int, stdout, stderr string) {
	var out, errw bytes.Buffer
	status = run(args, &out, &errw)
	return status, out.String(), errw.String()
}

// short keeps a run in the low milliseconds.
var short = []string{"-warmup", "200", "-measure", "1000", "-drain", "500"}

// TestErrors: a request the command cannot interpret exits 2, a
// well-formed one that cannot run exits 1; either names its cause on
// stderr and writes nothing to stdout.
func TestErrors(t *testing.T) {
	cases := []struct {
		args   []string
		status int
		want   string
	}{
		{[]string{"-no-such-flag"}, 2, "not defined: -no-such-flag"},
		{[]string{"-rate", "fast"}, 2, "invalid value"},
		{[]string{"-rate", "0.05", "bogus-positional"}, 2, `unexpected argument "bogus-positional"`},
		{[]string{"-preset", "nope"}, 1, `unknown preset "nope"`},
		{[]string{"-scheme", "nope"}, 1, "nope"},
		{[]string{"-pattern", "XX"}, 1, `unknown pattern "XX"`},
		{[]string{"-credits", "0"}, 1, "photosim:"},
		{[]string{"-hist", "/no/such/dir/hist.csv"}, 1, "/no/such/dir/hist.csv"},
		{[]string{"-measure", "0"}, 1, "core: window measure 0 cycles, need >= 1"},
		{[]string{"-measure", "-10"}, 1, "core: window measure -10 cycles, need >= 1"},
		{[]string{"-warmup", "-5"}, 1, "core: window warmup -5 cycles, need >= 0"},
		{[]string{"-drain", "-1"}, 1, "core: window drain -1 cycles, need >= 0"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			status, stdout, stderr := photosim(slices.Concat(short, tc.args)...)
			if status != tc.status || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stderr %q; want exit %d naming %q", status, stderr, tc.status, tc.want)
			}
			if stdout != "" {
				t.Errorf("failed run wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestSameSeedSameBytes: stdout is a function of the flags — two runs
// with one seed are byte-identical, another seed differs, and a preset's
// values show up unless a flag overrides them.
func TestSameSeedSameBytes(t *testing.T) {
	args := append([]string{"-scheme", "ghs-setaside", "-pattern", "BC", "-rate", "0.08", "-v"}, short...)
	status, first, stderr := photosim(args...)
	if status != 0 || !strings.Contains(first, "GHS w/ Setaside") || !strings.Contains(first, "per-channel diagnostics") {
		t.Fatalf("exit %d\n%s%s", status, first, stderr)
	}
	if _, second, _ := photosim(args...); second != first {
		t.Error("two runs with the same seed wrote different stdout")
	}
	if _, other, _ := photosim(append(args, "-seed", "2")...); other == first {
		t.Error("-seed 2 wrote the same bytes as -seed 1")
	}
	_, corona, _ := photosim(append([]string{"-preset", "corona", "-credits", "16"}, short...)...)
	if !strings.Contains(corona, "Token Channel") || !strings.Contains(corona, "16 credits") {
		t.Errorf("-preset corona -credits 16 printed:\n%s", corona)
	}
}

// TestJSONAndHist: -json emits one parseable document carrying the run's
// identity and result, and -hist writes the nine quantile rows.
func TestJSONAndHist(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "hist.csv")
	status, stdout, stderr := photosim(append([]string{"-json", "-hist", hist, "-rate", "0.1"}, short...)...)
	if status != 0 {
		t.Fatalf("exit %d\n%s", status, stderr)
	}
	var doc struct {
		Scheme, Pattern string
		Rate            float64
		Result          struct {
			Delivered  int64
			AvgLatency float64
		}
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if doc.Scheme != "dhs-setaside" || doc.Pattern != "UR" || doc.Rate != 0.1 || doc.Result.Delivered == 0 || doc.Result.AvgLatency <= 0 {
		t.Errorf("-json document %+v", doc)
	}
	b, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 10 || lines[0] != "quantile,latency_cycles" || !strings.HasPrefix(lines[9], "1.000,") {
		t.Errorf("-hist wrote %d lines:\n%s", len(lines), b)
	}
}
