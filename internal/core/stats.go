package core

import (
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/stats"
)

// Stats accumulates per-run measurements. Counters suffixed "Measured"
// cover only packets injected inside the measurement window; the raw
// counters cover the whole run (warmup and drain included) and exist for
// protocol-level rates such as drop percentage.
type Stats struct {
	window sim.Window
	cores  int

	Injected          int64
	InjectedMeasured  int64
	Delivered         int64
	DeliveredMeasured int64
	// DeliveredInWindow counts deliveries that *occur* inside the measure
	// window regardless of when the packet was injected — the correct
	// basis for accepted-throughput at and beyond saturation (counting
	// deliveries of measure-injected packets during the drain would credit
	// the network with more capacity than it has).
	DeliveredInWindow int64
	LocalDelivered    int64

	Launches      int64 // packet launches onto optical channels
	Drops         int64 // receiver-side drops (NACKed launches)
	Retransmits   int64
	Circulations  int64
	QueueRejected int64 // bounded output queue refusals

	// Fault-injection and recovery counters (all zero on fault-free runs).
	FaultsInjected     int64 // faults fired by the injector, all classes
	TimeoutRetransmits int64 // retransmissions triggered by sender timeouts
	TokensRegenerated  int64 // watchdog token re-emissions + slot-credit reclaims
	Lost               int64 // permanently lost packets (data fault on a fire-and-forget scheme)
	DupsDiscarded      int64 // duplicate arrivals recognised and re-ACKed by homes
	AcksLost           int64 // ACK pulses destroyed in flight
	NacksLost          int64 // NACK pulses destroyed in flight

	Latency   *stats.Histogram // end-to-end, measured packets
	ArbWait   *stats.Histogram // head-ready -> first launch, measured
	QueueWait *stats.Histogram // enqueue -> first launch, measured

	PerSourceDelivered []int64 // measured deliveries by source node
	PerSourceInjected  []int64 // measured injections by source node

	// digest fingerprints the run's full protocol event stream (see
	// digest.go); Network.emit feeds it unconditionally.
	digest runDigest
}

// NewStats builds an empty collector for a run over the given window.
func NewStats(window sim.Window, nodes, cores int) *Stats {
	return &Stats{
		window:             window,
		cores:              cores,
		Latency:            stats.NewHistogram(0),
		ArbWait:            stats.NewHistogram(0),
		QueueWait:          stats.NewHistogram(0),
		PerSourceDelivered: make([]int64, nodes),
		PerSourceInjected:  make([]int64, nodes),
	}
}

func (s *Stats) onInjected(p *router.Packet) {
	s.Injected++
	if s.window.InMeasure(p.CreatedAt) {
		p.Measured = true
		s.InjectedMeasured++
		s.PerSourceInjected[p.Src]++
	}
}

func (s *Stats) onDelivered(p *router.Packet, local bool) {
	s.Delivered++
	if local {
		s.LocalDelivered++
	}
	if s.window.InMeasure(p.DeliveredAt) {
		s.DeliveredInWindow++
	}
	if !p.Measured {
		return
	}
	s.DeliveredMeasured++
	s.Latency.Add(p.Latency())
	if w := p.ArbitrationWait(); w >= 0 {
		s.ArbWait.Add(w)
	}
	if w := p.QueueWait(); w >= 0 {
		s.QueueWait.Add(w)
	}
	s.PerSourceDelivered[p.Src]++
}

// Result condenses a finished run into the quantities the paper reports.
type Result struct {
	Scheme Scheme
	// AvgLatency is the mean end-to-end latency in cycles over measured,
	// delivered packets.
	AvgLatency float64
	// P95Latency and P99Latency are latency quantiles in cycles.
	P95Latency int64
	P99Latency int64
	// MaxLatency is the worst measured latency.
	MaxLatency int64
	// Throughput is accepted traffic in packets/cycle/core over the
	// measurement window.
	Throughput float64
	// OfferedLoad is injected traffic in packets/cycle/core over the
	// measurement window.
	OfferedLoad float64
	// AvgArbWait is the mean token/arbitration wait in cycles.
	AvgArbWait float64
	// AvgQueueWait is the mean output-queue wait (enqueue to first launch,
	// which includes the head's arbitration wait).
	AvgQueueWait float64
	// DropRate is receiver drops per launch (the paper's "packet dropping
	// and retransmission rate", kept below 1%).
	DropRate float64
	// CirculationRate is reinjections per launch (DHS-cir).
	CirculationRate float64
	// RetransmitRate is retransmissions per launch.
	RetransmitRate float64
	// Unfinished counts measured packets still undelivered at the end of
	// the drain (a saturation symptom).
	Unfinished int64
	// FairnessSpread is max/min measured per-source throughput over
	// sources that delivered at least one packet (1 = ideal).
	FairnessSpread float64
	// StarvedSources counts sources that injected during the window but
	// delivered nothing — total starvation, the failure mode the
	// fairness quota policy exists to mitigate.
	StarvedSources int
	// Delivered is the number of measured delivered packets.
	Delivered int64
	// Digest is the run's protocol-event fingerprint (see digest.go).
	// Identical (Config, traffic) pairs produce identical digests; any
	// protocol divergence changes it with overwhelming probability.
	Digest uint64
	// DigestEvents is the number of protocol events folded into Digest —
	// a cheap sanity cross-check when two digests disagree.
	DigestEvents uint64

	// Fault-injection summary (all zero on fault-free runs).
	FaultsInjected     int64
	TimeoutRetransmits int64
	TokensRegenerated  int64
	Lost               int64
}

// Finish computes the run's Result. measureCycles is the length of the
// measurement window (taken from the stats' own window).
func (s *Stats) Finish(scheme Scheme) Result {
	mc := float64(s.window.Measure)
	res := Result{
		Scheme:       scheme,
		AvgLatency:   s.Latency.Mean(),
		P95Latency:   s.Latency.Quantile(0.95),
		P99Latency:   s.Latency.Quantile(0.99),
		MaxLatency:   s.Latency.Max(),
		Throughput:   float64(s.DeliveredInWindow) / mc / float64(s.cores),
		OfferedLoad:  float64(s.InjectedMeasured) / mc / float64(s.cores),
		AvgArbWait:   s.ArbWait.Mean(),
		AvgQueueWait: s.QueueWait.Mean(),
		Unfinished:   s.InjectedMeasured - s.DeliveredMeasured,
		Delivered:    s.DeliveredMeasured,
		Digest:       s.digest.value(),
		DigestEvents: s.digest.count,

		FaultsInjected:     s.FaultsInjected,
		TimeoutRetransmits: s.TimeoutRetransmits,
		TokensRegenerated:  s.TokensRegenerated,
		Lost:               s.Lost,
	}
	if s.Launches > 0 {
		res.DropRate = float64(s.Drops) / float64(s.Launches)
		res.RetransmitRate = float64(s.Retransmits) / float64(s.Launches)
		res.CirculationRate = float64(s.Circulations) / float64(s.Launches)
	}
	for src, inj := range s.PerSourceInjected {
		if inj > 0 && s.PerSourceDelivered[src] == 0 {
			res.StarvedSources++
		}
	}
	var minT, maxT float64 = -1, 0
	for _, d := range s.PerSourceDelivered {
		if d == 0 {
			continue
		}
		t := float64(d)
		if minT < 0 || t < minT {
			minT = t
		}
		if t > maxT {
			maxT = t
		}
	}
	if minT > 0 {
		res.FairnessSpread = maxT / minT
	}
	return res
}
