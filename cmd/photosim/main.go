// Command photosim runs a single nanophotonic-NoC simulation with full
// control over every knob and prints the measured result.
//
// Examples:
//
//	photosim -scheme dhs-setaside -pattern UR -rate 0.11
//	photosim -scheme token-channel -pattern BC -rate 0.08 -credits 16 -v
//	photosim -scheme ghs -nodes 128 -roundtrip 16 -rate 0.05
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"photon"
	"photon/internal/core"
)

// writeHistCSV dumps the measured latency distribution as quantile rows.
func writeHistCSV(w io.Writer, st *core.Stats) {
	fmt.Fprintln(w, "quantile,latency_cycles")
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0} {
		fmt.Fprintf(w, "%.3f,%d\n", q, st.Latency.Quantile(q))
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the one
// simulation and returns the exit status (0 done, 1 failure, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("photosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset     = fs.String("preset", "", "start from a named configuration: paper, corona, bigring, smallcmp (flags below override)")
		schemeName = fs.String("scheme", "dhs-setaside", "scheme: token-channel, token-slot, ghs, ghs-setaside, dhs, dhs-setaside, dhs-circulation")
		patName    = fs.String("pattern", "UR", "traffic pattern: UR, BC, TOR, TP, NBR")
		rate       = fs.Float64("rate", 0.05, "injection rate in packets/cycle/core")
		nodes      = fs.Int("nodes", 64, "ring nodes")
		cores      = fs.Int("cores", 4, "cores per node")
		roundtrip  = fs.Int("roundtrip", 8, "ring round-trip time in cycles")
		credits    = fs.Int("credits", 8, "home buffer depth (credits)")
		setaside   = fs.Int("setaside", 4, "setaside slots per queue")
		warmup     = fs.Int64("warmup", 10_000, "warmup cycles")
		measure    = fs.Int64("measure", 20_000, "measurement cycles")
		drain      = fs.Int64("drain", 10_000, "drain cycles")
		seed       = fs.Uint64("seed", 1, "random seed")
		ejectStall = fs.Float64("ejectstall", 0, "per-cycle ejection stall probability (receiver contention)")
		noFair     = fs.Bool("nofair", false, "disable the fairness quota policy")
		verbose    = fs.Bool("v", false, "print per-channel diagnostics")
		asJSON     = fs.Bool("json", false, "emit the result as JSON")
		histOut    = fs.String("hist", "", "write the measured latency distribution as CSV to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "photosim: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "photosim:", err)
		return 1
	}

	scheme, err := photon.ParseScheme(*schemeName)
	if err != nil {
		return fail(err)
	}
	pat, err := photon.PatternByName(*patName)
	if err != nil {
		return fail(err)
	}

	cfg := photon.DefaultConfig(scheme)
	if *preset != "" {
		p, ok := core.PresetByName(*preset)
		if !ok {
			return fail(fmt.Errorf("unknown preset %q (paper, corona, bigring, smallcmp)", *preset))
		}
		cfg = p.Config
	}
	// Explicitly passed flags override the preset; defaults do not.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	apply := func(name string, set func()) {
		if *preset == "" || explicit[name] {
			set()
		}
	}
	apply("scheme", func() { cfg.Scheme = scheme })
	apply("nodes", func() { cfg.Nodes = *nodes })
	apply("cores", func() { cfg.CoresPerNode = *cores })
	apply("roundtrip", func() { cfg.RoundTrip = *roundtrip })
	apply("credits", func() { cfg.BufferDepth = *credits })
	apply("setaside", func() { cfg.SetasideSize = *setaside })
	cfg.Seed = *seed
	cfg.EjectStallProb = *ejectStall
	cfg.Fairness.Enabled = !*noFair

	window := photon.Window{Warmup: *warmup, Measure: *measure, Drain: *drain}
	net, err := photon.NewNetwork(cfg, window)
	if err != nil {
		return fail(err)
	}
	inj, err := photon.NewInjector(pat, *rate, cfg.Nodes, cfg.CoresPerNode, *seed+0x9E37)
	if err != nil {
		return fail(err)
	}
	res := inj.Run(net)

	if *histOut != "" {
		f, err := os.Create(*histOut)
		if err != nil {
			return fail(err)
		}
		writeHistCSV(f, net.Stats())
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Scheme  string
			Pattern string
			Rate    float64
			Result  photon.Result
		}{cfg.Scheme.String(), pat.Name(), *rate, res}); err != nil {
			return fail(err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "scheme            %s\n", cfg.Scheme.PaperName())
	fmt.Fprintf(stdout, "pattern           %s @ %.4f pkt/cycle/core\n", pat.Name(), *rate)
	fmt.Fprintf(stdout, "network           %d nodes x %d cores, R=%d cycles, %d credits\n",
		cfg.Nodes, cfg.CoresPerNode, cfg.RoundTrip, cfg.BufferDepth)
	fmt.Fprintf(stdout, "avg latency       %.2f cycles\n", res.AvgLatency)
	fmt.Fprintf(stdout, "p95 / p99 / max   %d / %d / %d cycles\n", res.P95Latency, res.P99Latency, res.MaxLatency)
	fmt.Fprintf(stdout, "throughput        %.4f pkt/cycle/core (offered %.4f)\n", res.Throughput, res.OfferedLoad)
	fmt.Fprintf(stdout, "arbitration wait  %.2f cycles\n", res.AvgArbWait)
	fmt.Fprintf(stdout, "drop rate         %.5f per launch\n", res.DropRate)
	fmt.Fprintf(stdout, "retransmit rate   %.5f per launch\n", res.RetransmitRate)
	fmt.Fprintf(stdout, "circulation rate  %.5f per launch\n", res.CirculationRate)
	fmt.Fprintf(stdout, "fairness spread   %.2f (max/min per-source throughput)\n", res.FairnessSpread)
	fmt.Fprintf(stdout, "unfinished        %d measured packets\n", res.Unfinished)

	if *verbose {
		fmt.Fprintln(stdout, "\nper-channel diagnostics (first 8 channels):")
		for i, d := range net.Diagnostics() {
			if i >= 8 {
				break
			}
			fmt.Fprintf(stdout, "  home %2d: launches=%d reinj=%d peakFlight=%d peakBuf=%d captures=%d emitted=%d expired=%d acks=%d nacks=%d yields=%d\n",
				d.Home, d.Launches, d.Reinjections, d.PeakInFlight, d.PeakInputBuf,
				d.TokenCaptures, d.TokensEmitted, d.TokensExpired, d.AcksSent, d.NacksSent, d.FairYields)
		}
	}
	return 0
}
