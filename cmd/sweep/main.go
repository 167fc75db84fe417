// Command sweep is the front end of the study catalog in internal/exp:
// every table, figure and extension study of the evaluation is one row,
// listed by -list and run by -study. -study takes a comma-separated list
// of distinct rows: the union of their points is simulated once, each
// distinct point once, and the rows print in list order.
//
//	sweep -list                    # every study: id, paper artefact, parameters, results file
//	sweep -study fig8:BC           # Fig 8: global group on Bit Complement
//	sweep -study claims            # up-to-62% throughput / sub-1% drop claims
//	sweep -study fig12 -load 0.05  # Fig 12 at another operating point
//	sweep -study fig8:UR -quick -csv -plot   # fast grid, CSV output, ASCII chart
//	sweep -study workload -workload bursty   # per-phase p50/p99/p999 under every scheme
//	sweep -study trace-gen -workload nas-cg -o cg.phtr   # synthesise a binary trace
//	sweep -study fig8:UR,fig9:UR,claims      # claims re-uses the two grids' points
//
// A row reads only the parameter flags -list shows for it (-pattern,
// -load, -workload, -o, -cycles), and every listed row must read every
// parameter flag given; anything else is a usage error.
//
// Crash-safe regeneration: -farm runs a catalog row's points (any row
// that lists points and reads no -workload, or "figures", the union of
// the paper-figure grids) under the sweep farm — a durable
// manifest journals every finished point, so a killed run resumes where it
// left off, and a point that fails is run once and quarantined instead of
// wedging the grid:
//
//	sweep -farm figures -quick -manifest run.jsonl   # full quick grid, journalled
//	sweep -farm figures -quick -manifest run.jsonl -resume   # pick up after a crash
//
// The farm flags (-manifest, -resume, -fsync, -farm-workers) need -farm,
// and -resume and -fsync need -manifest; an out-of-range value is a usage
// error, never a silent default.
//
// Any run takes -cpuprofile and -memprofile (pprof files; stdout is
// unchanged by them).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"photon/internal/exp"
	"photon/internal/farm"
	"photon/internal/stats"
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
	// The study parameters are declared first and alone, then the farm's
	// flags, so that each group is exactly the set a row, or -farm, reads.
	var params exp.Params
	params.Register(fs)
	isParam := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { isParam[f.Name] = true })
	var fcfg farm.Config
	fs.StringVar(&fcfg.Manifest, "manifest", "", "journal farm progress to this file (crash-safe JSONL)")
	fs.BoolVar(&fcfg.Resume, "resume", false, "resume a farm run from its manifest, skipping completed points")
	fs.BoolVar(&fcfg.Sync, "fsync", false, "farm: fsync the manifest after every record")
	fs.IntVar(&fcfg.Workers, "farm-workers", 0, "farm: concurrent workers (0 = GOMAXPROCS)")
	isFarm := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { isFarm[f.Name] = !isParam[f.Name] })
	var (
		study = fs.String("study", "", "run studies of the catalog, a comma-separated list (see -list)")
		list  = fs.Bool("list", false, "print the study catalog: name, id, paper artefact, parameters, results file")
		quick = fs.Bool("quick", false, "reduced load grid and shorter windows")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned text")
		plot  = fs.Bool("plot", false, "also render an ASCII chart of each latency-vs-load table (latency clipped at 100 cycles, like the paper's axes)")
		seed  = fs.Uint64("seed", 1, "random seed")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file when the run ends")

		farmGridFlag = fs.String("farm", "", "run a named point grid under the sweep farm: "+strings.Join(exp.GridNames(), ", "))
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
		{"farm", *farmGridFlag != ""}, {"study", *study != ""}, {"list", *list},
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
		return usage("nothing to run: give one of -list, -study, -farm")
	}

	// A -study list names distinct rows, a parameter flag must be one
	// every selected row reads (-farm and -list read none), and a farm
	// flag needs -farm.
	rows := []exp.Study{{Name: *farmGridFlag}}
	if mode == "study" {
		rows = nil
		for _, name := range strings.Split(*study, ",") {
			row, err := exp.StudyByName(name)
			switch {
			case name == "":
				return usage("-study %q has an empty element", *study)
			case err != nil:
				return usage("%v", err)
			case slices.ContainsFunc(rows, func(r exp.Study) bool { return r.Name == name }):
				return usage("-study lists %s twice", name)
			}
			rows = append(rows, row)
		}
	}
	var given []string
	orphan := ""
	fs.Visit(func(f *flag.Flag) {
		switch {
		case isParam[f.Name]:
			given = append(given, "-"+f.Name)
		case isFarm[f.Name] && mode != "farm" && orphan == "":
			orphan = f.Name
		}
	})
	for _, r := range rows {
		if unread := slices.DeleteFunc(slices.Clone(given), func(f string) bool { return slices.Contains(r.Params, f[1:]) }); len(unread) > 0 {
			return usage("%s does not read %s (see -list)", strings.TrimSpace("-"+mode+" "+r.Name), strings.Join(unread, ", "))
		}
	}
	switch {
	case orphan != "":
		return usage("-%s needs -farm", orphan)
	case fcfg.Resume && fcfg.Manifest == "":
		return usage("-resume needs -manifest")
	case fcfg.Sync && fcfg.Manifest == "":
		return usage("-fsync needs -manifest")
	case fcfg.Workers < 0:
		return usage("-farm-workers must be >= 0, got %d", fcfg.Workers)
	}

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	opts.Seed = *seed
	out := &exp.Output{W: stdout, CSV: *csv, Plot: *plot}

	stopProfiles, err := exp.Profile(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	switch mode {
	case "farm":
		err = runFarm(out, stderr, *farmGridFlag, opts, fcfg)
	case "list":
		err = out.Table(exp.CatalogTable())
	default:
		err = exp.RunStudies(out, opts, params, rows...)
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

// runFarm executes a named grid under the farm and renders
// the per-point summaries, the merged grid digest, and any quarantine
// report; errQuarantined signals an incomplete (quarantined) grid.
func runFarm(out *exp.Output, stderr io.Writer, gridName string, opts exp.Options, cfg farm.Config) error {
	g, err := farm.Build(gridName, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := farm.Run(g, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	t := stats.NewTable(fmt.Sprintf("farm grid %s (%d points)", g.Name, len(g.Points)),
		"point", "status", "resumed", "avg-lat", "throughput", "digest")
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
		t.AddRow(p.Key, string(p.Status), resumed, lat, tput, digest)
	}
	if err := out.Table(t); err != nil {
		return err
	}
	out.Printf("\nfarm: %d ran, %d resumed in %.1fs; grid digest %016x\n",
		rep.Ran, rep.Resumed, elapsed.Seconds(), rep.GridDigest())
	if q := rep.Quarantined(); len(q) > 0 {
		for _, p := range q {
			fmt.Fprintf(stderr, "sweep: quarantined %s: %s\n", p.Key, p.LastError)
		}
		return errQuarantined
	}
	return nil
}
