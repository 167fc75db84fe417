// Quickstart: simulate the paper's 64-node nanophotonic ring under the
// DHS-with-setaside handshake scheme and its Token Slot baseline at one
// operating point, and print the comparison — the 30-second tour of the
// public API.
package main

import (
	"fmt"
	"log"

	"photon"
)

func main() {
	const rate = 0.11 // packets/cycle/core, the paper's sensitivity point

	for _, scheme := range []photon.Scheme{photon.TokenSlot, photon.DHSSetaside} {
		cfg := photon.DefaultConfig(scheme)
		net, err := photon.NewNetwork(cfg, photon.DefaultWindow())
		if err != nil {
			log.Fatal(err)
		}
		inj, err := photon.NewInjector(photon.UniformRandom{}, rate, cfg.Nodes, cfg.CoresPerNode, 1)
		if err != nil {
			log.Fatal(err)
		}
		res := inj.Run(net)
		fmt.Printf("%-18s latency %6.1f cycles   throughput %.4f pkt/cycle/core   arb wait %4.1f\n",
			scheme.PaperName(), res.AvgLatency, res.Throughput, res.AvgArbWait)
	}

	fmt.Println("\nDHS generates a token every cycle instead of gating tokens on credits,")
	fmt.Println("so senders never wait on the credit round trip (paper §III).")

	// Driving the network by hand instead of through Run: a burst of
	// injection, then Stop the injector and keep stepping until the
	// network owns no packet.
	const burst = 1000
	cfg := photon.DefaultConfig(photon.DHSSetaside)
	net, err := photon.NewNetwork(cfg, photon.DefaultWindow())
	if err != nil {
		log.Fatal(err)
	}
	inj, err := photon.NewInjector(photon.UniformRandom{}, rate, cfg.Nodes, cfg.CoresPerNode, 1)
	if err != nil {
		log.Fatal(err)
	}
	cycle := 0
	for ; cycle < burst || net.Outstanding() > 0; cycle++ {
		if cycle == burst {
			inj.Stop()
		}
		inj.Tick(net)
		net.Step()
	}
	fmt.Printf("\na %d-cycle burst under %s drains %d cycles after the injector stops (%d packets delivered)\n",
		burst, photon.DHSSetaside.PaperName(), cycle-burst, net.Stats().Delivered)
}
