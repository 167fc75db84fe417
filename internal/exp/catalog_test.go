package exp

import (
	"flag"
	"io"
	"slices"
	"testing"
)

// TestCatalogRowsAreWellFormed: names are unique selectors, every row
// runs, a row's parameters are flags Params.Register declares, and a row
// has a -load default exactly when it reads -load.
func TestCatalogRowsAreWellFormed(t *testing.T) {
	fs := flag.NewFlagSet("params", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(Params).Register(fs)
	seen := map[string]bool{}
	for _, s := range Studies() {
		if s.Name == "" || s.Name == figuresGrid || seen[s.Name] {
			t.Errorf("row name %q is empty, reserved or repeated", s.Name)
		}
		seen[s.Name] = true
		if s.Run == nil {
			t.Errorf("%s: no Run", s.Name)
		}
		for _, p := range s.Params {
			if fs.Lookup(p) == nil {
				t.Errorf("%s reads -%s, which Params.Register does not declare", s.Name, p)
			}
		}
		if slices.Contains(s.Params, "load") != (s.Load != 0) {
			t.Errorf("%s: reads -load = %t but its default is %g", s.Name, slices.Contains(s.Params, "load"), s.Load)
		}
		if got, err := StudyByName(s.Name); err != nil || got.Name != s.Name {
			t.Errorf("StudyByName(%q) = %q, %v", s.Name, got.Name, err)
		}
	}
	if _, err := StudyByName("no-such-study"); err == nil {
		t.Error("unknown study name accepted")
	}
}
