package core_test

import (
	"strings"
	"testing"

	"photon/internal/core"
)

// TestRegistryCompleteness pins the registry contract every consumer
// relies on: row i is scheme i and names a wire function, and each scheme
// resolves to a row, carries a unique CLI name, sits in exactly one
// arbitration group, and survives the CLI-name round trip used by config
// parsing.
func TestRegistryCompleteness(t *testing.T) {
	schemes := core.Schemes()
	if len(schemes) == 0 {
		t.Fatal("no schemes registered")
	}
	for i, sp := range core.RegisteredProtocols() {
		if sp.Scheme != core.Scheme(i) {
			t.Errorf("registry row %d holds scheme %d: a row is missing or misplaced", i, int(sp.Scheme))
		}
		if !sp.Wired() {
			t.Errorf("registry row %d (%q) has no wire function", i, sp.Name)
		}
	}

	names := make(map[string]core.Scheme)
	paperNames := make(map[string]core.Scheme)
	for _, s := range schemes {
		sp, ok := core.LookupProtocol(s)
		if !ok {
			t.Fatalf("scheme %d has no registered protocol", int(s))
		}
		if sp.Scheme != s {
			t.Errorf("%v: spec.Scheme = %v, want %v", s, sp.Scheme, s)
		}

		if sp.Name == "" {
			t.Errorf("scheme %d: empty Name", int(s))
		}
		if prev, dup := names[sp.Name]; dup {
			t.Errorf("duplicate scheme name %q (%v and %v)", sp.Name, prev, s)
		}
		names[sp.Name] = s
		if s.String() != sp.Name {
			t.Errorf("%v: String() = %q, want registry name %q", s, s.String(), sp.Name)
		}
		if strings.Contains(sp.Name, " ") || sp.Name != strings.ToLower(sp.Name) {
			t.Errorf("%v: name %q is not a lowercase CLI token", s, sp.Name)
		}

		if sp.PaperName == "" {
			t.Errorf("%v: empty PaperName", s)
		}
		if prev, dup := paperNames[sp.PaperName]; dup {
			t.Errorf("duplicate paper name %q (%v and %v)", sp.PaperName, prev, s)
		}
		paperNames[sp.PaperName] = s

		if sp.Hardware.Name == "" {
			t.Errorf("%v: empty Hardware.Name", s)
		}

		// Trait accessors must agree with the spec they proxy.
		if s.Global() != sp.Global {
			t.Errorf("%v: Global() = %v, spec says %v", s, s.Global(), sp.Global)
		}
		if s.Handshake() != sp.Handshake {
			t.Errorf("%v: Handshake() = %v, spec says %v", s, s.Handshake(), sp.Handshake)
		}
		if s.CreditBased() != sp.CreditBased {
			t.Errorf("%v: CreditBased() = %v, spec says %v", s, s.CreditBased(), sp.CreditBased)
		}
		if s.Circulating() != sp.Circulating {
			t.Errorf("%v: Circulating() = %v, spec says %v", s, s.Circulating(), sp.Circulating)
		}
		if s.SendPolicy() != sp.SendPolicy {
			t.Errorf("%v: SendPolicy() = %v, spec says %v", s, s.SendPolicy(), sp.SendPolicy)
		}

		// A scheme is either credit-based or handshake-based, and
		// circulation forgoes both ledgers and the handshake waveguide.
		if sp.CreditBased && sp.Handshake {
			t.Errorf("%v: both CreditBased and Handshake", s)
		}
		if sp.Circulating && (sp.CreditBased || sp.Handshake) {
			t.Errorf("%v: Circulating with a credit or handshake ledger", s)
		}

		// Round trip through the CLI name (config parsing path).
		got, err := core.ParseScheme(sp.Name)
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", sp.Name, err)
		} else if got != s {
			t.Errorf("ParseScheme(%q) = %v, want %v", sp.Name, got, s)
		}
	}
}

// TestRegistryGroupPartition asserts every scheme appears in exactly one
// of GlobalGroup and DistributedGroup, and that both groups enumerate in
// registry order.
func TestRegistryGroupPartition(t *testing.T) {
	seen := make(map[core.Scheme]int)
	for _, s := range core.GlobalGroup() {
		if !s.Global() {
			t.Errorf("GlobalGroup contains non-global %v", s)
		}
		seen[s]++
	}
	for _, s := range core.DistributedGroup() {
		if s.Global() {
			t.Errorf("DistributedGroup contains global %v", s)
		}
		seen[s]++
	}
	for _, s := range core.Schemes() {
		if seen[s] != 1 {
			t.Errorf("%v appears in %d arbitration groups, want exactly 1", s, seen[s])
		}
	}
	if got, want := len(seen), len(core.Schemes()); got != want {
		t.Errorf("groups cover %d schemes, registry has %d", got, want)
	}
}

// TestParseSchemeUnknown pins the error shape: the valid-name list must
// come from the registry, so the message stays accurate as schemes are
// added. A Scheme value outside the registry resolves to no row.
func TestParseSchemeUnknown(t *testing.T) {
	for _, s := range []core.Scheme{-1, core.Scheme(len(core.Schemes()))} {
		if sp, ok := core.LookupProtocol(s); ok {
			t.Errorf("LookupProtocol(%d) found a row: %+v", int(s), sp.Name)
		}
	}
	_, err := core.ParseScheme("no-such-scheme")
	if err == nil {
		t.Fatal("ParseScheme accepted an unknown name")
	}
	for _, s := range core.Schemes() {
		if !strings.Contains(err.Error(), s.String()) {
			t.Errorf("error %q does not list valid scheme %q", err, s.String())
		}
	}
}
