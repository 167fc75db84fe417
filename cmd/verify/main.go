// Command verify runs the determinism + conservation battery: every
// scheme on the paper's three patterns, each point run twice from a
// pre-recorded traffic tape (bit-reproducibility), checked against the
// live injector (tape faithfulness), audited for packet conservation
// mid-flight and after drain, then cross-checked differentially between
// schemes and between serial and parallel sweep execution.
//
// With -chaos it instead runs the fault-injection battery: every (scheme,
// fault class, fault rate) triple with recovery enabled, asserting
// determinism under faults, conservation, quiescence, and zero permanent
// loss, plus the rate-zero inertness and recovery-off stranding legs.
//
// With -workloads it runs the workload differential battery: every
// preset workload (bursty, flash-crowd, phased diurnal) recorded as a
// tape and verified under every scheme — replay determinism, live
// tape-faithfulness, and packet conservation audited at every schedule
// phase boundary.
//
// With -twin it runs the analytical-twin differential: internal/twin's
// closed-form per-phase predictions compared against the exact span
// attribution for every scheme at utilization 0.2/0.35/0.5 of each
// scheme's twin-estimated saturation rate, within a max(10%, 0.75 cycle)
// band, plus model-side divergence and capacity-inversion cross checks.
//
// Examples:
//
//	verify -quick          # reduced windows, CI-sized battery
//	verify                 # full battery (longer windows, extra load)
//	verify -quick -seed 7  # different tape seed
//	verify -chaos -quick   # fault-injection battery
//	verify -workloads      # workload differential battery
//	verify -twin -quick    # analytical twin vs exact spans differential
//	verify -quick -json    # machine-readable pass/fail summary
//
// With -trace it runs one point with the streaming span assembler armed
// and exports the per-packet spans; every format folds or writes each
// span as it completes, so the trace never holds the run:
//
//	verify -trace                                   # exact attribution table, dhs-setaside UR@0.13
//	verify -trace -trace-scheme ghs -trace-load 0.2 # another point
//	verify -trace -trace-format chrome -trace-out trace.json   # chrome://tracing / Perfetto
//	verify -trace -trace-format flame -trace-out folded.txt    # flame-graph folded stacks
//
// One mode per run: -chaos, -workloads, -twin and -trace are mutually
// exclusive, and a -trace-* flag without -trace is a usage error (exit
// status 2), as are -csv with -json and either of them with -trace.
// Wall-clock measurement lives in bench/ (bash bench/run.sh); -cpuprofile
// and -memprofile write pprof profiles of any mode's run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"photon/internal/check"
	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/ptrace"
	"photon/internal/sim"
	"photon/internal/stats"
	"photon/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// battery runs the battery a mode flag names ("" is the standard one).
// It is a variable so tests can substitute an outcome.
var battery = func(mode string, seed uint64, quick bool) (check.Outcome, error) {
	switch mode {
	case "twin":
		b := check.QuickTwinBattery(seed)
		if !quick {
			b = check.FullTwinBattery(seed)
		}
		return check.RunTwin(b)
	case "workloads":
		b := check.QuickWorkloadBattery(seed)
		if !quick {
			// The full variant runs the standard short window with a deeper
			// post-run drain.
			b.Window = sim.ShortWindow()
			b.DrainLimit = 60_000
		}
		return check.RunWorkloads(b)
	case "chaos":
		b := check.QuickChaos(seed)
		if !quick {
			// The full variant widens the rate grid and the window.
			b.Rates = []float64{0.001, 0.01, 0.05, 0.10}
			b.Window.Measure *= 4
		}
		return check.RunChaos(b)
	default:
		b := check.FullBattery(seed)
		if quick {
			b = check.QuickBattery(seed)
		}
		return check.Run(b)
	}
}

// run is main without the process: it parses args, runs the selected
// mode and returns the exit status (0 pass, 1 failure, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick     = fs.Bool("quick", false, "reduced load grid and shorter windows (the CI battery)")
		seed      = fs.Uint64("seed", 1, "base seed for the traffic tapes")
		csv       = fs.Bool("csv", false, "emit the per-point table as CSV")
		chaos     = fs.Bool("chaos", false, "run the fault-injection battery instead of the standard one")
		workloads = fs.Bool("workloads", false, "run the workload differential battery instead of the standard one")
		twinDiff  = fs.Bool("twin", false, "run the analytical-twin-vs-exact-spans differential battery instead of the standard one")
		jsonOut   = fs.Bool("json", false, "emit a machine-readable pass/fail summary")

		trace        = fs.Bool("trace", false, "trace one point with the event tap and export per-packet spans")
		traceScheme  = fs.String("trace-scheme", "dhs-setaside", "scheme to trace")
		tracePattern = fs.String("trace-pattern", "UR", "traffic pattern to trace: UR, BC, TOR")
		traceLoad    = fs.Float64("trace-load", 0.13, "offered load for the traced point")
		traceFormat  = fs.String("trace-format", "table", "export format: table, chrome, flame")
		traceOut     = fs.String("trace-out", "", "output path (default stdout)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, "verify:", err)
		return status
	}

	// The mode flags are mutually exclusive, and a flag that only
	// qualifies one mode is an error without it.
	mode := ""
	for _, m := range []struct {
		name string
		on   bool
	}{{"trace", *trace}, {"twin", *twinDiff}, {"workloads", *workloads}, {"chaos", *chaos}} {
		if !m.on {
			continue
		}
		if mode != "" {
			return fail(2, fmt.Errorf("-%s and -%s are mutually exclusive", mode, m.name))
		}
		mode = m.name
	}
	switch {
	case *csv && *jsonOut:
		return fail(2, errors.New("-csv and -json are mutually exclusive"))
	case *trace && (*csv || *jsonOut):
		return fail(2, errors.New("-csv and -json do not apply to -trace (it has -trace-format)"))
	}
	var orphan error
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "trace-") && !*trace && orphan == nil {
			orphan = fmt.Errorf("-%s needs -trace", f.Name)
		}
	})
	if orphan != nil {
		return fail(2, orphan)
	}

	stopProfiles, err := exp.Profile(*cpuProfile, *memProfile)
	if err != nil {
		return fail(1, err)
	}
	pass := true
	switch mode {
	case "trace":
		err = runTrace(stdout, *traceScheme, *tracePattern, *traceLoad, *traceFormat, *traceOut, *seed, *quick)
	default:
		pass, err = runBattery(stdout, mode, *seed, *quick, *csv, *jsonOut)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return fail(1, err)
	}
	if !pass {
		return 1
	}
	return 0
}

// runBattery runs the battery the mode names and prints its outcome: the
// check.Summary document with jsonOut, otherwise the per-point table (as
// CSV with csv), one line per cross check, and the PASS/FAIL footer.
func runBattery(w io.Writer, mode string, seed uint64, quick, csv, jsonOut bool) (pass bool, err error) {
	out, err := battery(mode, seed, quick)
	if err != nil {
		return false, err
	}
	sum := out.Summary(seed)
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return sum.Pass, enc.Encode(sum)
	}
	t := out.Table()
	if csv {
		err = t.WriteCSV(w)
	} else {
		err = t.WriteText(w)
	}
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w)
	for _, c := range sum.Cross {
		if c.Status == "pass" {
			fmt.Fprintf(w, "ok    %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "FAIL  %s  (%s)\n", c.Name, c.Status)
		}
	}
	fmt.Fprintln(w)
	if sum.Pass {
		_, err = fmt.Fprintf(w, "PASS: %d points, %d cross checks\n", len(sum.Points), len(sum.Cross))
		return true, err
	}
	fails := out.Failures()
	fmt.Fprintf(w, "FAIL: %d violation(s)\n", len(fails))
	for _, f := range fails {
		fmt.Fprintln(w, "  -", f)
	}
	return false, nil
}

// runTrace runs one point on the streaming assembler and exports its
// spans in the requested format. Each one consumes spans as they flush:
// the table and flame fold them into attribution sums, chrome writes
// their events straight to the output.
func runTrace(stdout io.Writer, schemeName, patternName string, load float64, format, outPath string, seed uint64, quick bool) (err error) {
	scheme, err := core.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	var pattern traffic.Pattern
	for _, p := range traffic.PaperPatterns() {
		if p.Name() == patternName {
			pattern = p
		}
	}
	if pattern == nil {
		return fmt.Errorf("unknown pattern %q (UR, BC, TOR)", patternName)
	}
	if format != "table" && format != "chrome" && format != "flame" {
		return fmt.Errorf("unknown trace format %q (table, chrome, flame)", format)
	}
	opts := exp.DefaultOptions()
	if quick {
		opts = exp.QuickOptions()
	}
	opts.Seed = seed

	out := stdout
	if outPath != "" {
		f, cerr := os.Create(outPath)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = f
	}
	var tee ptrace.StreamConfig
	var finish func() error // writes what the stream left to write
	switch format {
	case "chrome":
		ct := ptrace.NewChromeTrace(out)
		tee, finish = ptrace.StreamConfig{OnSpan: ct.Span, OnMeta: ct.Meta}, ct.Close
	case "flame":
		var local, remote ptrace.Attribution
		tee.OnSpan = func(s *ptrace.PacketSpan) error {
			if s.Local {
				local.AddSpan(s, false)
			} else {
				remote.AddSpan(s, false)
			}
			return nil
		}
		finish = func() error {
			return ptrace.WriteFlame(out, local, remote, fmt.Sprintf("%s-%s@%.2f", scheme, patternName, load))
		}
	}
	res, attr, st, err := exp.RunStreamedPoint(exp.Point{Scheme: scheme, Pattern: pattern, Rate: load}, opts, tee)
	if err != nil {
		return err
	}
	if finish != nil {
		return finish()
	}
	t := stats.NewTable(
		fmt.Sprintf("%s %s @ %.3f — exact attribution over %d measured deliveries (%d local)",
			scheme, patternName, load, attr.Spans, attr.Local),
		"phase", "total cycles", "avg cycles/packet")
	for k := 0; k < ptrace.NumPhases; k++ {
		kind := ptrace.PhaseKind(k)
		t.AddRow(kind.String(), attr.Phases[k], fmt.Sprintf("%.2f", attr.AvgPhase(kind)))
	}
	t.AddRow("total", attr.Total, fmt.Sprintf("%.2f", attr.AvgTotal()))
	t.AddRow("(setaside overlap)", attr.Setaside, "")
	if err := t.WriteText(out); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "\nspans %d  launches %d  drops %d  circulations %d  digest %016x (tap is digest-inert)\nexact mean %.4f == measured AvgLatency %.4f\n",
		st.Flushed(), attr.Launches, attr.Drops, attr.Circulations, res.Digest, attr.AvgTotal(), res.AvgLatency)
	return err
}
