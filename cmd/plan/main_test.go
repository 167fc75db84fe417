package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"photon/internal/core"
)

// TestRunValidation: flag combinations that must be rejected, with the
// error naming the problem.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     planConfig
		wantErr string
	}{
		{"unknown scheme", planConfig{scheme: "warp-drive", budget: 15}, "unknown scheme"},
		{"unknown scheme no budget", planConfig{scheme: "nope"}, "unknown scheme"},
		{"negative budget", planConfig{scheme: "dhs", budget: -3}, "budget must be positive"},
		{"p99 without budget", planConfig{p99: true}, "-p99 needs a -budget"},
		// A non-finite budget has no answer, not rate 0 for every scheme.
		{"NaN budget", planConfig{budget: math.NaN()}, "-budget must be a finite"},
		{"+Inf budget", planConfig{scheme: "dhs", budget: math.Inf(1)}, "-budget must be a finite"},
		{"-Inf budget", planConfig{budget: math.Inf(-1)}, "-budget must be a finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, tc.cfg)
			if err == nil {
				t.Fatalf("run(%+v) succeeded, want error containing %q", tc.cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%+v) error %q, want it to contain %q", tc.cfg, err, tc.wantErr)
			}
		})
	}
}

// TestUsageErrors: a flag that only qualifies a budget query, given
// without one, is a usage error (exit 2) naming the flag and -budget —
// never silently ignored. A non-finite -budget fails with exit 1.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args   []string
		status int
		want   string
	}{
		{[]string{"-quick"}, 2, "-quick needs -budget"},
		{[]string{"-seed", "3"}, 2, "-seed needs -budget"},
		{[]string{"-no-refine", "-json"}, 2, "-no-refine needs -budget"},
		{[]string{"-budget", "0", "-quick"}, 2, "-quick needs -budget"},
		{[]string{"-no-such-flag"}, 2, "no-such-flag"},
		{[]string{"-budget", "NaN"}, 1, "-budget must be a finite number of cycles, got NaN"},
		{[]string{"-budget", "+Inf", "-no-refine"}, 1, "-budget must be a finite number of cycles, got +Inf"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			status := plan(tc.args, &stdout, &stderr)
			if status != tc.status || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit %d naming %q", status, stdout.String(), stderr.String(), tc.status, tc.want)
			}
		})
	}
	// The profile itself takes no refinement flag and still answers.
	var stdout, stderr bytes.Buffer
	if status := plan([]string{"-json"}, &stdout, &stderr); status != 0 || stdout.Len() == 0 {
		t.Fatalf("plan -json: exit %d, stderr %q", status, stderr.String())
	}
}

// TestRunProfile: with no budget, run prints the per-scheme capacity
// profile without simulating anything.
func TestRunProfile(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, planConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range core.Schemes() {
		if !strings.Contains(out.String(), s.String()) {
			t.Errorf("profile output missing scheme %s:\n%s", s, out.String())
		}
	}
}

// TestRunProfileJSONRoundTrip: -json profile output parses back into the
// Profile rows with sane values.
func TestRunProfileJSONRoundTrip(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, planConfig{jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	var rows []Profile
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("profile JSON does not parse: %v\n%s", err, out.String())
	}
	if len(rows) != len(core.Schemes()) {
		t.Fatalf("profile has %d rows, want %d", len(rows), len(core.Schemes()))
	}
	for _, r := range rows {
		if r.SaturationRate <= 0 || r.SaturationRate >= 1 {
			t.Errorf("%s: saturation rate %.4f outside (0, 1)", r.Scheme, r.SaturationRate)
		}
		if r.EnvelopeRate >= r.SaturationRate {
			t.Errorf("%s: envelope rate %.4f not below saturation %.4f", r.Scheme, r.EnvelopeRate, r.SaturationRate)
		}
	}
}

// TestRunBudgetJSONRoundTrip: a binding budget answered in closed form
// round-trips through -json with the documented fields, and stays inside
// the budget. noRefine keeps the test simulation-free even if a scheme's
// answer diverges.
func TestRunBudgetJSONRoundTrip(t *testing.T) {
	var out bytes.Buffer
	cfg := planConfig{budget: 15, jsonOut: true, noRefine: true, seed: 1}
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	var answers []Answer
	if err := json.Unmarshal(out.Bytes(), &answers); err != nil {
		t.Fatalf("answer JSON does not parse: %v\n%s", err, out.String())
	}
	if len(answers) != len(core.Schemes()) {
		t.Fatalf("%d answers, want %d", len(answers), len(core.Schemes()))
	}
	for _, a := range answers {
		if a.Metric != "mean" || a.Budget != 15 {
			t.Errorf("%s: metric/budget %q/%.1f, want mean/15", a.Scheme, a.Metric, a.Budget)
		}
		if a.Rate < 0 || a.Rate > a.SaturationRate {
			t.Errorf("%s: rate %.4f outside [0, sat %.4f]", a.Scheme, a.Rate, a.SaturationRate)
		}
		switch a.Source {
		case "twin":
			if a.Latency > a.Budget+1e-6 {
				t.Errorf("%s: closed-form answer latency %.2f exceeds budget", a.Scheme, a.Latency)
			}
		case "twin-capped":
			if !a.Diverged {
				t.Errorf("%s: capped answer must carry the divergence flag", a.Scheme)
			}
		default:
			t.Errorf("%s: source %q impossible under noRefine", a.Scheme, a.Source)
		}
	}
}

// TestRunSingleScheme: -scheme restricts the answer set, and the text
// table carries the source column.
func TestRunSingleScheme(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, planConfig{scheme: "ghs", budget: 20, noRefine: true, seed: 1}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "ghs") || strings.Contains(got, "dhs-setaside") {
		t.Errorf("-scheme ghs output wrong schemes:\n%s", got)
	}
	if !strings.Contains(got, "twin") {
		t.Errorf("output missing the answer source:\n%s", got)
	}
}

// TestRunRefineDivergent: a loose budget forces the divergence fallback;
// with quick windows the refinement must answer with a simulated rate at
// or above the envelope edge and mark the source.
func TestRunRefineDivergent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation refinement in -short mode")
	}
	var out bytes.Buffer
	cfg := planConfig{scheme: "dhs", budget: 200, jsonOut: true, quick: true, seed: 1}
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	var answers []Answer
	if err := json.Unmarshal(out.Bytes(), &answers); err != nil {
		t.Fatalf("refined JSON does not parse: %v\n%s", err, out.String())
	}
	if len(answers) != 1 {
		t.Fatalf("%d answers, want 1", len(answers))
	}
	a := answers[0]
	if a.Source != "twin+sim" {
		t.Fatalf("loose budget source %q, want twin+sim", a.Source)
	}
	if a.Utilization < 0.7 {
		t.Errorf("refined utilization %.2f below the envelope edge — refinement should only run past it", a.Utilization)
	}
}
