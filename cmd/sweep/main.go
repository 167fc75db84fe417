// Command sweep regenerates the paper's latency-vs-load figures and the
// headline synthetic-workload claims.
//
// Examples:
//
//	sweep -fig 2b              # Fig 2(b): token slot by credit count
//	sweep -fig 8 -pattern BC   # Fig 8: global group on Bit Complement
//	sweep -fig 9 -pattern UR   # Fig 9: distributed group on Uniform Random
//	sweep -fig 11              # Fig 11(a)-(e): credit sensitivity
//	sweep -fig 11f             # Fig 11(f): setaside size study
//	sweep -claims              # up-to-62% throughput / sub-1% drop claims
//	sweep -fig 8 -quick -csv   # fast grid, CSV output
//
// Serving workloads: -workload runs a named preset (bursty, flash,
// diurnal) or a raw workload spec (see traffic.ParseWorkload for the
// grammar) under every scheme and reports per-phase p50/p99/p999 latency
// from exact span attribution:
//
//	sweep -workload bursty -quick
//	sweep -workload "0.5@bernoulli(rate=0.05);0.5@burst(rate=0.3,on=400,off=1200)"
//	sweep -farm slo -quick     # the preset x scheme grid under the farm
//
// Fault-tolerant regeneration: -farm runs a named point grid under the
// supervised sweep farm — a durable manifest journals every completed
// point, so a killed run resumes where it left off, and a poison point
// is retried with backoff then quarantined instead of wedging the grid:
//
//	sweep -farm figures -quick -manifest run.jsonl   # full quick grid, journalled
//	sweep -farm figures -quick -manifest run.jsonl -resume   # pick up after a crash
//	sweep -farm fig8:UR -farm-shards                 # one subprocess per point
//
// Any run takes -cpuprofile and -memprofile (pprof files; stdout is
// unchanged by them):
//
//	sweep -workload bursty -quick -cpuprofile cpu.prof
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/router"
	"photon/internal/stats"
	"photon/internal/traffic"
	"photon/internal/viz"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errQuarantined reports a farm grid that finished incomplete; the
// quarantined points have already been listed on stderr.
var errQuarantined = errors.New("farm grid incomplete")

// run is main without the process: it parses args, runs the selected
// mode and returns the exit status (0 done, 1 failure, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "figure to regenerate: 2b, 8, 9, 11, 11f")
		pattern  = fs.String("pattern", "UR", "pattern for figures 8/9 and -workload: UR, BC, TOR")
		claims   = fs.Bool("claims", false, "measure the headline throughput/drop-rate claims on all three patterns")
		fair     = fs.Bool("fairness", false, "run the §III-D fairness study (service share by ring position)")
		brk      = fs.Float64("breakdown", 0, "exact per-phase latency attribution at this UR load (the analytical twin's prediction prints alongside as a cross-check)")
		quick    = fs.Bool("quick", false, "reduced load grid and shorter windows")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		plot     = fs.Bool("plot", false, "also render an ASCII chart (latency clipped at 100 cycles, like the paper's axes)")
		seed     = fs.Uint64("seed", 1, "random seed")
		workload = fs.String("workload", "", "run a preset workload (bursty, flash, diurnal) or raw workload spec under every scheme, reporting per-phase p50/p99/p999")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file when the run ends")

		farmGridFlag = fs.String("farm", "", "run a named point grid under the supervised sweep farm: "+strings.Join(append(exp.FigureGridNames(), exp.WorkloadGridNames()...), ", "))
		manifest     = fs.String("manifest", "", "journal farm progress to this file (crash-safe JSONL)")
		resume       = fs.Bool("resume", false, "resume a farm run from its manifest, skipping completed points")
		maxAttempts  = fs.Int("max-attempts", 3, "farm: attempts per point before quarantine")
		farmWorkers  = fs.Int("farm-workers", 0, "farm: concurrent workers (0 = GOMAXPROCS)")
		farmShards   = fs.Bool("farm-shards", false, "farm: run each point in its own subprocess (OS-level isolation)")
		farmTimeout  = fs.Duration("farm-timeout", 0, "farm: per-point deadline (0 = none)")
		fsync        = fs.Bool("fsync", false, "farm: fsync the manifest after every record")

		// Hidden worker mode: the supervisor re-invokes this binary as
		// `sweep -farm-worker -farm-grid <name> -farm-point <i> [...]`.
		workerMode  = fs.Bool("farm-worker", false, "internal: run one farm point and print its result line")
		workerGrid  = fs.String("farm-grid", "", "internal: grid name for -farm-worker")
		workerPoint = fs.Int("farm-point", -1, "internal: point index for -farm-worker")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "sweep: "+format+"\n", a...)
		return 2
	}

	// Exactly one mode per run.
	mode := ""
	for _, m := range []struct {
		name string
		on   bool
	}{
		{"farm-worker", *workerMode}, {"farm", *farmGridFlag != ""}, {"workload", *workload != ""},
		{"breakdown", *brk > 0}, {"fairness", *fair}, {"claims", *claims}, {"fig", *fig != ""},
	} {
		if !m.on {
			continue
		}
		if mode != "" {
			return usage("-%s and -%s are mutually exclusive", mode, m.name)
		}
		mode = m.name
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case mode == "":
		fs.Usage()
		return usage("nothing to run: give one of -fig, -claims, -fairness, -breakdown, -workload, -farm")
	}
	switch *fig {
	case "", "2b", "8", "9", "11", "11f":
	default:
		return usage("unknown figure %q (2b, 8, 9, 11, 11f)", *fig)
	}

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	opts.Seed = *seed

	stopProfiles, err := exp.Profile(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	switch mode {
	case "farm-worker":
		err = farm.RunWorker(stdout, *workerGrid, *workerPoint, opts)
	case "farm":
		err = runFarm(stdout, stderr, *farmGridFlag, opts, farmFlags{
			manifest: *manifest, resume: *resume, maxAttempts: *maxAttempts,
			workers: *farmWorkers, shards: *farmShards, timeout: *farmTimeout,
			fsync: *fsync, quick: *quick, seed: *seed, csv: *csv,
		})
	default:
		err = runStudy(stdout, mode, *fig, *pattern, *workload, *brk, opts, *csv, *plot)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		if err != errQuarantined {
			fmt.Fprintln(stderr, "sweep:", err)
		}
		return 1
	}
	return 0
}

// runStudy runs the figure, claims, fairness, breakdown or workload study
// the mode names and writes its tables (and, with plot, charts) to w.
func runStudy(w io.Writer, mode, fig, pattern, workload string, brk float64, opts exp.Options, csv, plot bool) error {
	emit := func(t *stats.Table, curves []exp.Curve) error {
		var err error
		if csv {
			err = t.WriteCSV(w)
		} else {
			err = t.WriteText(w)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		if !plot || curves == nil {
			return nil
		}
		chart := &viz.Chart{Title: t.Title, XLabel: "packets/cycle/core", YLabel: "latency (cycles)", YCap: 100}
		for _, c := range curves {
			chart.Add(c.Label, c.Loads, c.Latency)
		}
		if err := chart.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return nil
	}

	switch {
	case mode == "workload":
		pat, err := traffic.ByName(pattern)
		if err != nil {
			return err
		}
		_, t, err := exp.WorkloadSweep(workload, pat, opts)
		if err != nil {
			return err
		}
		return emit(t, nil)
	case mode == "breakdown":
		// Exact per-packet attribution from the protocol event tap.
		_, t, err := exp.ExactBreakdown(brk, opts)
		if err != nil {
			return err
		}
		return emit(t, nil)
	case mode == "fairness":
		// The fairness study targets the non-blocking handshake variants
		// (setaside and circulation) — the schemes whose senders keep
		// injecting past an un-ACKed packet and so can starve far nodes.
		for _, s := range core.Schemes() {
			if s.CreditBased() || s.SendPolicy() == router.HoldHead {
				continue
			}
			_, t, err := exp.FairnessStudy(s, opts)
			if err != nil {
				return err
			}
			if err := emit(t, nil); err != nil {
				return err
			}
		}
	case mode == "claims":
		for _, pat := range []string{"UR", "BC", "TOR"} {
			c, err := exp.Claims(pat, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s: global group: Token Channel %.4f -> best GHS %.4f (%+.0f%%); ",
				pat, c.GlobalBaseline, c.GlobalHandshake, c.GlobalGainPct)
			fmt.Fprintf(w, "distributed group: Token Slot %.4f -> best DHS %.4f (%+.0f%%)\n",
				c.DistBaseline, c.DistHandshake, c.DistGainPct)
			fmt.Fprintf(w, "%s: worst handshake rates: drop %.4f%%, retransmit %.4f%%, circulation %.4f%%\n",
				pat, 100*c.MaxDropRate, 100*c.MaxRetxRate, 100*c.MaxCirculateRate)
		}
	case fig == "2b":
		curves, t, err := exp.Fig2b(opts)
		if err != nil {
			return err
		}
		return emit(t, curves)
	case fig == "8":
		curves, t, err := exp.Fig8(pattern, opts)
		if err != nil {
			return err
		}
		return emit(t, curves)
	case fig == "9":
		curves, t, err := exp.Fig9(pattern, opts)
		if err != nil {
			return err
		}
		return emit(t, curves)
	case fig == "11":
		// Figure 11 panels (a)-(e): one per handshake-family scheme —
		// everything the registry holds except the credit baselines.
		for _, s := range core.Schemes() {
			if s.CreditBased() {
				continue
			}
			curves, t, err := exp.Fig11(s, opts)
			if err != nil {
				return err
			}
			if err := emit(t, curves); err != nil {
				return err
			}
		}
	case fig == "11f":
		_, t, err := exp.Fig11f(opts)
		if err != nil {
			return err
		}
		return emit(t, nil)
	}
	return nil
}

type farmFlags struct {
	manifest    string
	resume      bool
	maxAttempts int
	workers     int
	shards      bool
	timeout     time.Duration
	fsync       bool
	quick       bool
	seed        uint64
	csv         bool
}

// runFarm executes a named grid under the supervised farm and renders
// the per-point summaries, the merged grid digest, and any quarantine
// report; errQuarantined signals an incomplete (quarantined) grid.
func runFarm(stdout, stderr io.Writer, gridName string, opts exp.Options, ff farmFlags) error {
	g, err := farm.Build(gridName, opts)
	if err != nil {
		return err
	}
	cfg := farm.Config{
		Workers:      ff.workers,
		MaxAttempts:  ff.maxAttempts,
		PointTimeout: ff.timeout,
		Manifest:     ff.manifest,
		Resume:       ff.resume,
		Sync:         ff.fsync,
	}
	if ff.shards {
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("sweep: resolving own binary for shards: %w", err)
		}
		extra := []string{"-seed", fmt.Sprint(ff.seed)}
		if ff.quick {
			extra = append(extra, "-quick")
		}
		cfg.Exec = farm.SelfExec(self, extra...)
	}
	start := time.Now()
	rep, err := farm.Run(g, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	t := stats.NewTable(fmt.Sprintf("farm grid %s (%d points)", g.Name, len(g.Points)),
		"point", "status", "attempts", "resumed", "avg-lat", "throughput", "digest")
	for _, p := range rep.Points {
		lat, tput, digest := "-", "-", "-"
		if p.Status == farm.StatusDone {
			lat = fmt.Sprintf("%.1f", p.Summary.AvgLatency)
			tput = fmt.Sprintf("%.4f", p.Summary.Throughput)
			digest = fmt.Sprintf("%016x", p.Digest)
		}
		resumed := ""
		if p.Resumed {
			resumed = "yes"
		}
		t.AddRow(p.Key, string(p.Status), p.Attempts, resumed, lat, tput, digest)
	}
	if ff.csv {
		err = t.WriteCSV(stdout)
	} else {
		err = t.WriteText(stdout)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nfarm: %d ran, %d resumed in %.1fs; grid digest %016x\n",
		rep.Ran, rep.Resumed, elapsed.Seconds(), rep.GridDigest())
	if q := rep.Quarantined(); len(q) > 0 {
		for _, p := range q {
			fmt.Fprintf(stderr, "sweep: quarantined %s after %d attempts: %s\n", p.Key, p.Attempts, p.LastError)
		}
		return errQuarantined
	}
	return nil
}
