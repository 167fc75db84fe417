package traffic_test

import (
	"reflect"
	"strings"
	"testing"

	"photon/internal/traffic"
)

// TestWorkloadSpecRoundTrip pins the canonical form: parsing a spec and
// rendering it back must be a fixed point (ParseWorkload ∘ String = id),
// including non-canonical input spellings collapsing onto the canonical
// one.
func TestWorkloadSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical; "" means in is already canonical
	}{
		{"bernoulli(rate=0.1)", ""},
		{"burst(rate=0.3,on=400,off=1200)", ""},
		{"flash(base=0.04,peak=0.32,at=0.5,width=0.15)|clients(n=1000000,hot=0.25,cores=4)", ""},
		{"0.25@bernoulli(rate=0.05);0.55@diurnal(mean=0.11,amp=0.8,period=2500);0.2@bernoulli(rate=0.03)", ""},
		{"500c@bernoulli(rate=0.2);0.5@burst(rate=0.4,on=100,off=300);0.5@bernoulli(rate=0.01)", ""},
		// Whitespace, parameter order and redundant duration collapse.
		{" bernoulli( rate = 0.1 ) ", "bernoulli(rate=0.1)"},
		{"burst(off=1200,rate=0.3,on=400)", "burst(rate=0.3,on=400,off=1200)"},
		{"1@bernoulli(rate=0.1)", "bernoulli(rate=0.1)"},
		// Flash defaults materialize in the canonical form.
		{"flash(base=0.05,peak=0.4)", "flash(base=0.05,peak=0.4,at=0.5,width=0.1)"},
		{"bernoulli(rate=0.1)|clients(n=100)", "bernoulli(rate=0.1)|clients(n=100,hot=0,cores=1)"},
	}
	for _, tc := range cases {
		w, err := traffic.ParseWorkload(tc.in)
		if err != nil {
			t.Errorf("ParseWorkload(%q): %v", tc.in, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.in
		}
		got := w.String()
		if got != want {
			t.Errorf("ParseWorkload(%q).String() = %q, want %q", tc.in, got, want)
			continue
		}
		again, err := traffic.ParseWorkload(got)
		if err != nil {
			t.Errorf("canonical form %q does not reparse: %v", got, err)
			continue
		}
		if !reflect.DeepEqual(w, again) {
			t.Errorf("round trip of %q changed the workload", tc.in)
		}
	}
}

// TestWorkloadSpecErrors pins the reject paths: every malformed spec
// must produce an error mentioning the offending piece, never a panic or
// a silently-defaulted workload.
func TestWorkloadSpecErrors(t *testing.T) {
	cases := []struct {
		in      string
		errPart string
	}{
		{"", "empty workload spec"},
		{"bernoulli", "expected name(params)"},
		{"bernoulli()", `missing required parameter "rate"`},
		{"bernoulli(rate=2)", "outside [0,1]"},
		{"bernoulli(rate=0.1,rate=0.2)", "duplicate parameter"},
		{"bernoulli(rate=0.1,bogus=3)", `unknown parameter "bogus"`},
		{"mystery(rate=0.1)", "unknown arrival process"},
		{"bernoulli(rate=0.1);bernoulli(rate=0.2)", "needs a duration on every phase"},
		{"0.5@bernoulli(rate=0.1);0.7@bernoulli(rate=0.2)", ""}, // fractions may overshoot: shares are proportional
		{"0c@bernoulli(rate=0.1);1@bernoulli(rate=0.1)", "must be >= 1"},
		{"-0.3@bernoulli(rate=0.1);1@bernoulli(rate=0.1)", "outside (0,1]"},
		{"x@bernoulli(rate=0.1)", "bad duration"},
		{"burst(rate=0.3,on=0.5,off=10)", "outside [1,"},
		{"diurnal(mean=0.9,amp=0.5,period=100)", "exceeds 1"},
		{"bernoulli(rate=0.1)|clients(hot=0.5)", `missing required parameter "n"`},
		{"bernoulli(rate=0.1)|clients(n=0)", "outside [1,"},
		{"bernoulli(rate=0.1)|clients(n=100,hot=0.5,cores=0)", "at least one hot core"},
		{"bernoulli(rate=0.1)|hotspot(n=100)", "expected clients"},
	}
	for _, tc := range cases {
		_, err := traffic.ParseWorkload(tc.in)
		if tc.errPart == "" {
			if err != nil {
				t.Errorf("ParseWorkload(%q) unexpectedly failed: %v", tc.in, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseWorkload(%q) succeeded, want error containing %q", tc.in, tc.errPart)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("ParseWorkload(%q) = %v, want error containing %q", tc.in, err, tc.errPart)
		}
	}
}

// TestUnknownParametersNamedInOrder pins the unknown-parameter error to
// the spec, not to map iteration order: every unknown key is named, sorted,
// and parsing the same spec again gives the same error.
func TestUnknownParametersNamedInOrder(t *testing.T) {
	const spec = "bernoulli(rate=0.1,foo=1,bar=2,baz=3)"
	const want = `unknown parameters "bar", "baz", "foo" for bernoulli`
	for i := 0; i < 2; i++ {
		_, err := traffic.ParseWorkload(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("parse %d of %q: %v, want an error containing %q", i+1, spec, err, want)
		}
	}
}

// TestPresetWorkloadsParse pins that every named preset is valid and
// already written in canonical form — the preset table doubles as
// documentation of the grammar, so it must not drift from it.
func TestPresetWorkloadsParse(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range traffic.PresetWorkloads() {
		if seen[p.Name] {
			t.Errorf("duplicate preset name %q", p.Name)
		}
		seen[p.Name] = true
		w, err := traffic.ParseWorkload(p.Spec)
		if err != nil {
			t.Errorf("preset %s: %v", p.Name, err)
			continue
		}
		if got := w.String(); got != p.Spec {
			t.Errorf("preset %s is not canonical: spec %q, canonical %q", p.Name, p.Spec, got)
		}
		byName, spec, err := traffic.PresetWorkload(p.Name)
		if err != nil || spec != p.Spec || !reflect.DeepEqual(byName, w) {
			t.Errorf("PresetWorkload(%q) did not resolve the preset (err %v)", p.Name, err)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("want at least 3 presets (bursty, flash, diurnal), got %d", len(seen))
	}
	// Raw specs resolve too, with the canonical form echoed back.
	if _, spec, err := traffic.PresetWorkload("bernoulli(rate=0.25)"); err != nil || spec != "bernoulli(rate=0.25)" {
		t.Errorf("PresetWorkload on a raw spec: spec %q, err %v", spec, err)
	}
	if _, _, err := traffic.PresetWorkload("no-such-preset"); err == nil {
		t.Error("PresetWorkload accepted garbage")
	}
}

// FuzzWorkloadSpec hammers the spec parser. Contract: ParseWorkload
// either errors or returns a validated workload whose canonical string
// form reparses to the bit-identical workload, and whose schedule
// resolves totally (monotone bounds ending exactly at the span) for any
// span.
func FuzzWorkloadSpec(f *testing.F) {
	for _, p := range traffic.PresetWorkloads() {
		f.Add(p.Spec)
	}
	f.Add("bernoulli(rate=0.1)")
	f.Add("500c@bernoulli(rate=0.2);0.5@burst(rate=0.4,on=100,off=300);0.5@bernoulli(rate=0.01)")
	f.Add("1e300@bernoulli(rate=0.1)")
	f.Add("bernoulli(rate=NaN)")
	f.Add("9223372036854775807c@bernoulli(rate=1)")
	f.Add("bernoulli(rate=0.1)|clients(n=1e18)")
	f.Add(";;;|||")
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := traffic.ParseWorkload(spec)
		if err != nil {
			return // rejected up front — the fail-fast contract is met
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("ParseWorkload(%q) returned an invalid workload: %v", spec, err)
		}
		canon := w.String()
		again, err := traffic.ParseWorkload(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("round trip of %q via %q changed the workload", spec, canon)
		}
		if c2 := again.String(); c2 != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, c2)
		}
		for _, span := range []int64{0, 1, 63, 5000} {
			bounds := w.Resolve(span)
			if len(bounds) != len(w.Segments) {
				t.Fatalf("Resolve(%d) returned %d bounds for %d segments", span, len(bounds), len(w.Segments))
			}
			at := int64(0)
			for _, b := range bounds {
				if b < at || b > span {
					t.Fatalf("Resolve(%d) bounds %v are not monotone within the span", span, bounds)
				}
				at = b
			}
			if bounds[len(bounds)-1] != span {
				t.Fatalf("Resolve(%d) ends at %d, not the span", span, bounds[len(bounds)-1])
			}
		}
	})
}
