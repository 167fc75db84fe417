package photon

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"photon/internal/exp"
	"photon/internal/farm"
)

// TestCatalogIsTheInventory holds the other lists of experiments to the
// study catalog (internal/exp): the files under results/, DESIGN.md's
// per-experiment index and the grid names the farm accepts. Each fails
// here when it names something the catalog does not, or misses a row.
func TestCatalogIsTheInventory(t *testing.T) {
	studies := exp.Studies()

	// results/: every file is named by exactly one row, every named file exists.
	owner := map[string]string{}
	for _, s := range studies {
		if s.Results == "" {
			continue
		}
		if prev, dup := owner[s.Results]; dup {
			t.Errorf("results/%s is named by both %s and %s", s.Results, prev, s.Name)
		}
		owner[s.Results] = s.Name
		if _, err := os.Stat(filepath.Join("results", s.Results)); err != nil {
			t.Errorf("study %s regenerates results/%s: %v", s.Name, s.Results, err)
		}
	}
	onDisk, err := filepath.Glob(filepath.Join("results", "*.txt"))
	if err != nil || len(onDisk) == 0 {
		t.Fatalf("results/*.txt: %d files, %v", len(onDisk), err)
	}
	for _, path := range onDisk {
		if owner[filepath.Base(path)] == "" {
			t.Errorf("%s is regenerated by no catalog row", path)
		}
	}

	// DESIGN.md: the index repeats sweep -list cell for cell (its last
	// column, the description, is the document's own).
	var list bytes.Buffer
	if err := exp.CatalogTable().WriteCSV(&list); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&list).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{} // study -> id, paper artefact, parameters, results file
	for _, rec := range records[1:] {
		want[rec[0]] = rec[1:]
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, found := strings.Cut(string(design), "\n## Per-experiment index\n")
	if !found {
		t.Fatal("DESIGN.md has no \"## Per-experiment index\" section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	indexed := map[string]bool{}
	for _, line := range strings.Split(index, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 5 || strings.HasPrefix(cells[0], "-") || strings.TrimSpace(cells[0]) == "ID" {
			continue
		}
		for i := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "`")
		}
		id, name := cells[0], cells[1]
		row, ok := want[name]
		if !ok {
			t.Errorf("DESIGN.md index names study %q, which the catalog does not have", name)
			continue
		}
		indexed[name] = true
		if got := append([]string{id}, cells[2:5]...); strings.Join(got, " | ") != strings.Join(row, " | ") {
			t.Errorf("DESIGN.md index row %s reads %q, sweep -list prints %q", name, got, row)
		}
	}
	for _, s := range studies {
		if !indexed[s.Name] {
			t.Errorf("study %s has no row in DESIGN.md's per-experiment index", s.Name)
		}
	}

	// The farm: a name builds exactly when it is a row with Points that
	// reads no -workload (the one parameter without a default), or
	// "figures".
	opts := exp.QuickOptions()
	for _, s := range studies {
		g, err := farm.Build(s.Name, opts)
		grid := s.Points != nil && !slices.Contains(s.Params, "workload")
		switch {
		case !grid && err == nil:
			t.Errorf("farm.Build accepts %s, which is no grid", s.Name)
		case grid && (err != nil || len(g.Points) == 0):
			t.Errorf("farm.Build(%s): %d points, %v", s.Name, len(g.Points), err)
		}
	}
	for _, name := range exp.GridNames() {
		if _, err := farm.Build(name, opts); err != nil {
			t.Errorf("farm.Build rejects the advertised grid %s: %v", name, err)
		}
		if _, err := exp.StudyByName(name); err != nil && name != "figures" {
			t.Errorf("advertised grid %s is not a catalog row", name)
		}
	}
}
