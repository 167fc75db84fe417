package traffic

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/stats"
)

// MultiFlitInjector drives a network with multi-flit packets, following
// the paper's own prescription for them: "with a multi-flit packet, we can
// add the header information into each flit" (§III, fn. 6) — i.e. each
// flit carries its own header and traverses the network as an independent
// single-flit unit; the packet completes when its last flit is delivered.
//
// The injector tracks reassembly and reports *message* latency (creation
// of the first flit to delivery of the last), the metric that matters for
// multi-flit transfers such as cache lines wider than the channel.
type MultiFlitInjector struct {
	// The embedded Bernoulli injector draws the messages: one (core, dst)
	// pair per message at rate messages/cycle/core, from the same
	// generator — and so the same validation and the same streams — as
	// single-flit traffic.
	*Injector
	flitsPerMsg   int
	nextMsg       uint64
	remaining     map[uint64]int
	created       map[uint64]int64
	MsgLatency    *stats.Histogram
	MessagesDone  int64
	MessagesBegun int64
}

// NewMultiFlitInjector builds an injector sending flitsPerMsg flits per
// message at rate messages/cycle/core.
func NewMultiFlitInjector(pattern Pattern, rate float64, flitsPerMsg, nodes, coresPerNode int, seed uint64) (*MultiFlitInjector, error) {
	if flitsPerMsg < 1 {
		return nil, fmt.Errorf("traffic: flits per message must be >= 1, got %d", flitsPerMsg)
	}
	in, err := NewInjector(pattern, rate, nodes, coresPerNode, seed)
	if err != nil {
		return nil, err
	}
	return &MultiFlitInjector{
		Injector:    in,
		flitsPerMsg: flitsPerMsg,
		remaining:   map[uint64]int{},
		created:     map[uint64]int64{},
		MsgLatency:  stats.NewHistogram(0),
	}, nil
}

// Install hooks the injector's reassembly tracking into net.OnDeliver.
// Call once before driving the network.
func (in *MultiFlitInjector) Install(net *core.Network) {
	prev := net.OnDeliver
	net.OnDeliver = func(p *router.Packet) {
		if prev != nil {
			prev(p)
		}
		msg := p.Tag & 0xFFFFFFFFFF // the network reserves bits 40+ for queue routing
		left, ok := in.remaining[msg]
		if !ok {
			return
		}
		left--
		if left == 0 {
			delete(in.remaining, msg)
			in.MsgLatency.Add(p.DeliveredAt - in.created[msg])
			delete(in.created, msg)
			in.MessagesDone++
			return
		}
		in.remaining[msg] = left
	}
}

// Tick injects this cycle's messages: all flits of a message are handed to
// the router back-to-back (they serialise through the core's injection
// port over the following cycles via the output queue).
func (in *MultiFlitInjector) Tick(net *core.Network) {
	in.tick(net, func(c, dst int) {
		msg := in.nextMsg
		in.nextMsg++
		in.remaining[msg] = in.flitsPerMsg
		in.created[msg] = net.Now()
		in.MessagesBegun++
		for f := 0; f < in.flitsPerMsg; f++ {
			net.Inject(c, dst, router.ClassData, msg)
		}
	})
}

// Run drives net through its window and returns the mean message latency
// and message throughput (messages/cycle/core over the measure window —
// approximated by completed messages over the full injection span).
func (in *MultiFlitInjector) Run(net *core.Network) (avgMsgLatency float64, msgThroughput float64) {
	w := net.Window()
	in.Install(net)
	for cyc := int64(0); cyc < w.Warmup+w.Measure; cyc++ {
		in.Tick(net)
		net.Step()
	}
	net.RunCycles(w.Drain)
	cores := float64(net.Config().Cores())
	return in.MsgLatency.Mean(), float64(in.MessagesDone) / float64(w.Warmup+w.Measure) / cores
}
