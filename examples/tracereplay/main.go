// Tracereplay: the application-workload path of the API end to end —
// synthesise a benchmark trace (the stand-in for the paper's Simics
// extraction), persist it to the binary trace format, read it back, replay
// it under two schemes, and run the same benchmark closed-loop through the
// MSHR-limited CMP model to see the IPC effect of the network.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"photon"
)

func main() {
	apps := photon.Apps()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	fmt.Printf("%d benchmark models (Figure 10): %s\n", len(apps), strings.Join(names, " "))

	app, err := photon.AppByName("nas-cg")
	if err != nil {
		log.Fatal(err)
	}

	cfg := photon.DefaultConfig(photon.TokenChannel)
	tr := app.Synthesize(cfg.Cores(), cfg.Nodes, 20_000, 42)
	fmt.Printf("synthesised %s: %d packets over %d cycles (%.5f pkt/cycle/core)\n",
		tr.App, len(tr.Records), tr.Cycles, tr.Rate())

	// Round-trip through the binary codec, as a downstream tool would.
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary trace size: %d bytes (%.1f bytes/record)\n",
		buf.Len(), float64(buf.Len())/float64(len(tr.Records)))

	// Open-loop replay: communication latency under baseline vs handshake.
	fmt.Println("\nopen-loop replay (Figure 10 methodology):")
	for _, scheme := range []photon.Scheme{photon.TokenChannel, photon.GHSSetaside} {
		cfg := photon.DefaultConfig(scheme)
		window := photon.Window{Warmup: 0, Measure: tr.Cycles, Drain: 0}
		net, err := photon.NewNetwork(cfg, window)
		if err != nil {
			log.Fatal(err)
		}
		res, err := photon.ReplayTrace(tr, net, 20_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s avg latency %6.1f cycles   p99 %4d   drops/launch %.5f\n",
			scheme.PaperName(), res.AvgLatency, res.P99Latency, res.DropRate)
	}

	// Closed-loop CMP: the same workload intensity with self-throttling
	// cores (4 MSHRs each) — the §V-B IPC experiment.
	fmt.Println("\nclosed-loop CMP (IPC study methodology):")
	for _, scheme := range []photon.Scheme{photon.TokenChannel, photon.GHSSetaside} {
		cfg := photon.DefaultConfig(scheme)
		window := photon.Window{Warmup: 0, Measure: 20_000, Drain: 0}
		net, err := photon.NewNetwork(cfg, window)
		if err != nil {
			log.Fatal(err)
		}
		params := photon.DefaultCMPParams()
		params.MissPer1kInstr = app.MeanRate * 1000 / float64(params.IssueWidth)
		cmp, err := photon.NewCMP(params, net)
		if err != nil {
			log.Fatal(err)
		}
		out := cmp.Run(20_000)
		fmt.Printf("  %-16s IPC %.3f   stall fraction %.3f   net latency %.1f\n",
			scheme.PaperName(), out.IPC, out.StallFraction, out.NetResult.AvgLatency)
	}
}
