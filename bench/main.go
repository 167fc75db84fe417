// Command bench is the repository's one outside-in benchmark: six
// workloads run through the entry points a user would call, end-to-end
// metrics measured with tracing off, and a traced pass that times every
// layer from outside for the per-layer ledger. README.md has the metric
// tables, what each layer metric should move, and why each workload
// exists.
//
//	go run ./bench                      every workload, then the traced pass
//	go run ./bench -json > a.json       the same, as one JSON document
//	go run ./bench -compare a.json b.json
//	go run ./bench -workload ur-low -seed 3 -seconds 10 -trace 0
//
// The last form is the one BENCHMARK.json's command runs: one workload,
// time-boxed, ending in one JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	json     bool
	smoke    bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with the one-line JSON result (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.IntVar(&o.seconds, "seconds", 0, "time-boxed run: each workload runs its op list, then fresh seeds until this many seconds are up (default: three interleaved rounds over the op lists)")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: traced pass only (default: both)")
	fs.BoolVar(&o.json, "json", false, "print the results as one JSON document")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for tests; the numbers mean nothing")
	fs.StringVar(&o.spans, "spans", "", "write the traced pass's spans to this file as Chrome-trace JSON")
	doCompare := fs.Bool("compare", false, "compare two -json documents given as arguments; exit 1 if any metric is worse")
	writeRef := fs.String("write-reference", "", "regenerate the seed-1 reference into this file (bench/reference.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	scratch := &scratchDir{}
	defer scratch.remove()
	switch {
	case *doCompare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("bench: -compare takes two files"))
		}
		worse, err := compare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	case *writeRef != "":
		if err := writeReference(*writeRef, scratch); err != nil {
			return fail(err)
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("bench: unexpected argument %q", fs.Arg(0)))
	}
	if err := measure(o, scratch, stdout); err != nil {
		return fail(err)
	}
	return 0
}

// measure is the benchmark proper.
func measure(o options, scratch *scratchDir, stdout io.Writer) error {
	sz := sizeFull
	if o.smoke {
		sz = sizeSmoke
	}
	if o.trace == 1 {
		sz.setups = 1 // setup_s is an end-to-end metric; a traced-only run does not report it
	}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("bench: unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	// The human-readable report goes to stdout unless -json owns it.
	text := stdout
	if o.json {
		text = io.Discard
	}

	doc := document{Bench: "photon/bench", Seed: o.seed, Size: sz.name, Workers: farmWorkers, GoVersion: runtime.Version()}
	preps := make([]*prepared, len(selected))
	for i, w := range selected {
		p, err := setup(w, o.seed, sz)
		if err != nil {
			return err
		}
		preps[i] = p
		doc.Workloads = append(doc.Workloads, workloadDoc{Name: w.name, Loop: w.loop, Correct: true})
	}

	if o.trace != 1 {
		if err := endToEndPass(o, sz, preps, &doc, scratch, text); err != nil {
			return err
		}
	}
	if o.trace != 0 {
		if err := tracedPass(o, sz, preps, &doc, scratch, text); err != nil {
			return err
		}
	}

	for _, wd := range doc.Workloads {
		for _, f := range wd.Failures {
			fmt.Fprintf(text, "FAILED %s: %s\n", wd.Name, f)
		}
	}
	if o.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	if o.workload != "" {
		return resultLine(stdout, doc.Workloads[0], o.trace)
	}
	return nil
}

// endToEndPass runs the workloads with tracing off and fills in their
// end-to-end metrics.
func endToEndPass(o options, sz size, preps []*prepared, doc *document, scratch *scratchDir, text io.Writer) error {
	rows := make([][]rowResult, len(preps))
	oneRow := func(i, round, j int) error {
		rr, err := preps[i].runRow(round, j, scratch)
		rows[i] = append(rows[i], rr)
		return err
	}
	if o.seconds > 0 {
		// Time-boxed: each workload in turn runs its op list, then goes on
		// to rows of fresh seeds until its time is up.
		for i, p := range preps {
			start := time.Now()
			for j := 0; j < p.rows || time.Since(start) < time.Duration(o.seconds)*time.Second; j++ {
				if err := oneRow(i, 0, j); err != nil {
					return err
				}
			}
		}
	} else {
		// Rounds interleave the workloads, so that a noisy stretch of
		// machine time is spread over all of them.
		for r := 0; r < sz.rounds; r++ {
			for i, p := range preps {
				for j := 0; j < p.rows; j++ {
					if err := oneRow(i, r, j); err != nil {
						return err
					}
				}
			}
		}
	}
	for i, p := range preps {
		out := p.summarise(rows[i])
		wd := &doc.Workloads[i]
		wd.Rows = len(rows[i])
		wd.Attempted, wd.Failed, wd.Failures = out.attempted, out.failed, out.failures
		wd.Correct = out.correct
		wd.Fingerprint = fmt.Sprintf("%016x", out.fingerprint)
		wd.EndToEnd = out.metrics
		fmt.Fprintf(text, "\n%s — end to end, tracing off (%s loop, %d rows, %d ops attempted, %d failed)\n",
			wd.Name, wd.Loop, wd.Rows, wd.Attempted, wd.Failed)
		printMetrics(text, wd.EndToEnd)
	}
	return nil
}

// tracedPass runs the layer micro-measurements once and every workload's
// traced pass, and fills in the per-layer ledgers.
func tracedPass(o options, sz size, preps []*prepared, doc *document, scratch *scratchDir, text io.Writer) error {
	rec := newRecorder()
	shared, err := micro(rec, sz, o.seed, scratch)
	if err != nil {
		return err
	}
	for i, p := range preps {
		t := &traced{p: p, rec: rec}
		l, out, err := t.run(scratch)
		if err != nil {
			return err
		}
		for name, v := range shared {
			l[name] = v
		}
		wd := &doc.Workloads[i]
		if wd.PerLayer, err = l.metrics(); err != nil {
			return err
		}
		wd.Failures = append(wd.Failures, out.failures...)
		if o.trace == 1 {
			wd.Attempted, wd.Failed = out.attempted, out.failed
		}
		if out.failed > 0 {
			wd.Correct = false
		}
		fmt.Fprintf(text, "\n%s — per layer, traced pass (%d ops driven by the benchmark's own loop)\n", p.w.name, out.attempted)
		printMetrics(text, wd.PerLayer)
		printSelfTimes(text, rec, p.w.name)
	}
	fmt.Fprintf(text, "\nlayer micro-measurements (in every workload's ledger above)\n")
	printSelfTimes(text, rec, microWorkload)
	if o.spans != "" {
		if err := writeSpans(o.spans, rec); err != nil {
			return err
		}
		fmt.Fprintf(text, "\n%d spans written to %s\n", len(rec.spans), o.spans)
	}
	return nil
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: spans file: %w", err)
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: spans file: %w", err)
	}
	return nil
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("  %-42s %16.6g %-15s", m.Name, m.Value, m.Unit)
		if m.Q1 != nil {
			line += fmt.Sprintf(" [q1 %.6g, q3 %.6g]", *m.Q1, *m.Q3)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine prints the one-line result a single-workload run ends with:
// the gated end-to-end metrics with tracing off, the per-layer metrics
// from a traced-only run.
func resultLine(w io.Writer, wd workloadDoc, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace == 1 {
		for _, m := range wd.PerLayer {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	} else {
		for _, m := range wd.EndToEnd {
			if d, _ := metricByName(m.Name); d.gated {
				metrics[m.Name] = value{m.Value, m.Unit}
			}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   wd.Correct,
		"attempted": wd.Attempted,
		"failed":    wd.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
