package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// document is the -json output: every workload's end-to-end metrics and,
// when the traced pass ran, its per-layer ledger.
type document struct {
	Bench     string        `json:"bench"`
	Seed      uint64        `json:"seed"`
	Size      string        `json:"size"`
	Workers   int           `json:"farm_workers"`
	GoVersion string        `json:"go_version"`
	Workloads []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name      string `json:"name"`
	Loop      string `json:"loop"`
	Rows      int    `json:"rows"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	// Fingerprint folds every simulated output of a pass (digests, counts,
	// latencies): equal fingerprints mean the same simulation was timed.
	Fingerprint string   `json:"sim_fingerprint,omitempty"`
	Failures    []string `json:"failures,omitempty"`
	EndToEnd    []metric `json:"end_to_end,omitempty"`
	PerLayer    []metric `json:"per_layer,omitempty"`
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: compare: %w", err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("bench: compare: %s: %w", path, err)
	}
	return &doc, nil
}

// spread is a metric's own spread inside one document: the distance
// between the quartiles of its samples as a share of their median.
func spread(m metric) float64 {
	if m.Q1 == nil || m.Q3 == nil || m.Value == 0 {
		return 0
	}
	return (*m.Q3 - *m.Q1) / math.Abs(m.Value)
}

// judge compares one metric of two runs, b against the base a. How much
// worse b is counts as a share of a (in absolute units for
// sat_gain_err_pp, and wherever a is 0).
//
//	ok          b is no worse than a by more than the bound
//	worse       it is
//	unresolved  it is not, but either run's own spread exceeds the bound,
//	            so "unchanged" cannot be claimed — unless b's whole
//	            interquartile range reads better than a's
func judge(d metricDef, a, b metric) string {
	worse := b.Value - a.Value
	if d.better == "higher" {
		worse = -worse
	}
	if d.name != "sat_gain_err_pp" && a.Value != 0 {
		worse /= math.Abs(a.Value)
	}
	if worse > d.bound {
		return "worse"
	}
	if math.Max(spread(a), spread(b)) > d.bound {
		allBetter := a.Q1 != nil && b.Q1 != nil &&
			((d.better == "lower" && *b.Q3 < *a.Q1) || (d.better == "higher" && *b.Q1 > *a.Q3))
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// compare prints, per workload and end-to-end metric, both values, the
// ratio with its base, the bound and the verdict. It returns the number
// of `worse` rows.
func compare(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a = %s (seed %d, size %s)\nb = %s (seed %d, size %s)\n", pathA, a.Seed, a.Size, pathB, b.Seed, b.Size)
	if a.Seed != b.Seed || a.Size != b.Size {
		return 0, fmt.Errorf("bench: compare: the runs differ in seed or size, so their metrics are not comparable")
	}
	fmt.Fprintf(w, "%-12s %-24s %14s %14s %16s %8s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict")
	nWorse, rows := 0, 0
	for _, wa := range a.Workloads {
		var wb *workloadDoc
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(w, "%-12s simulated outputs differ (fingerprint %s vs %s): b is not a pure speed change\n",
				wa.Name, wa.Fingerprint, wb.Fingerprint)
		}
		for _, ma := range wa.EndToEnd {
			d, ok := metricByName(ma.Name)
			if !ok {
				continue
			}
			for _, mb := range wb.EndToEnd {
				if mb.Name != ma.Name {
					continue
				}
				verdict := judge(d, ma, mb)
				if verdict == "worse" {
					nWorse++
				}
				rows++
				bound := fmt.Sprintf("%.0f%%", 100*d.bound)
				switch {
				case d.name == "sat_gain_err_pp":
					bound = fmt.Sprintf("%gpp", d.bound)
				case math.IsInf(d.bound, 1):
					// The host's state, not the program's: shown, not judged.
					bound, verdict = "-", "-"
				}
				fmt.Fprintf(w, "%-12s %-24s %14.6g %14.6g %16s %8s  %s\n", wa.Name, ma.Name, ma.Value, mb.Value,
					fmt.Sprintf("%.4f", ratio(mb.Value, ma.Value)), bound, verdict)
			}
		}
	}
	if rows == 0 {
		return 0, fmt.Errorf("bench: compare: the two files share no workload and end-to-end metric")
	}
	fmt.Fprintf(w, "%d rows, %d worse\n", rows, nWorse)
	return nWorse, nil
}
