package core

import "photon/internal/fault"

// Accounting is a packet-conservation snapshot of a network: every counter
// needed to prove that no packet was created, duplicated or lost by the
// protocol machinery. internal/check audits these against the conservation
// identities (Injected == Delivered + Backlog, per-channel launch
// accounting, handshake NACK/retransmit balance); the snapshot itself
// lives in core because only the network can observe all the substrates
// coherently.
//
// All counters are cumulative over the whole run (warmup, measurement and
// drain included); occupancy fields (Backlog, InFlight, Buffered, ...)
// describe the instant the snapshot was taken, so the identities hold at
// any cycle, not just after a full drain.
type Accounting struct {
	Scheme Scheme

	// Whole-network cumulative counters.
	Injected       int64 // packets handed to routers by cores
	Delivered      int64 // packets ejected to destination cores (incl. local)
	LocalDelivered int64 // deliveries that never entered the ring
	Launches       int64 // packet launches onto optical channels (retx included)
	Drops          int64 // receiver-side drops (handshake NACKs)
	Retransmits    int64 // re-launches (NACK- and timeout-triggered)
	Circulations   int64 // receiver reinjections (DHS with circulation)
	QueueRejected  int64 // packets discarded by bounded output queues

	// Fault-injection and recovery counters (all zero on fault-free runs).
	FaultsInjected     int64 // injector fires, all classes
	FaultTokens        int64 // token-loss fires
	FaultPulses        int64 // pulse-loss fires
	FaultData          int64 // data-loss fires
	FaultStalls        int64 // node-stall fires (events, not stall-cycles)
	TimeoutRetransmits int64 // retransmissions triggered by sender timeouts
	TokensRegenerated  int64 // watchdog re-emissions + slot-credit reclaims
	Lost               int64 // permanent losses (data fault, fire-and-forget)
	DupsDiscarded      int64 // duplicate arrivals recognised by homes
	AcksLost           int64 // ACK pulses destroyed in flight
	NacksLost          int64 // NACK pulses destroyed in flight

	// Instantaneous occupancy, broken down by where packets sit. Backlog
	// locates every undelivered packet exactly once: in an injection
	// pipeline, an output queue, on a waveguide, in a home input buffer,
	// or orphaned (its only live copy destroyed, the retransmission still
	// owed): Backlog = Pipeline + Queued + (InFlight - DupsInFlight) +
	// Buffered + Orphans. Duplicates launched by timeout recovery are
	// subtracted so each packet counts once; on fault-free runs Orphans ==
	// Drops - Retransmits and DupsInFlight == 0, reducing to the seed
	// formula. Unacked counts sender retention copies, which overlap with
	// InFlight/Buffered/Delivered and are therefore not part of the
	// Backlog sum; Outstanding = Pipeline + Queued + Unacked + InFlight +
	// Buffered is the quiescence measure Drain stops on.
	Backlog      int
	Outstanding  int
	Pipeline     int // electrical injection pipelines
	Queued       int // output queues (setaside/pending excluded)
	Unacked      int // sent, awaiting handshake (pending + setaside)
	InFlight     int // on optical data channels
	Buffered     int // home input buffers
	Orphans      int // only live copy destroyed; retransmission owed
	DupsInFlight int // duplicate copies of accepted packets on waveguides

	// Packet lifetime: Holders is the engine's running sum of packet holder
	// counts, equal to Outstanding term for term; LivePackets counts packets
	// injected and not yet released, at most one per holder.
	Holders     int
	LivePackets int

	Channels []ChannelAccounting
}

// ChannelAccounting is the per-channel slice of the conservation ledger.
type ChannelAccounting struct {
	Home          int
	Launches      int64 // sender launches onto this channel
	Reinjections  int64 // receiver reinjections (circulation)
	Ejected       int64 // packets drained from the home buffer to cores
	AcksSent      int64 // positive handshakes issued by the home
	NacksSent     int64 // negative handshakes issued by the home
	InFlight      int   // currently on the waveguide
	Buffered      int   // currently in the home input buffer
	DupsDiscarded int64 // duplicate arrivals recognised and re-ACKed
	FaultDiscards int64 // arrivals destroyed by data faults
	AcksLost      int64 // ACK pulses destroyed on this channel's handshake line
	NacksLost     int64 // NACK pulses destroyed on this channel's handshake line
}

// Accounting snapshots the network's conservation ledger at the current
// cycle.
func (n *Network) Accounting() Accounting {
	a := Accounting{
		Scheme:         n.cfg.Scheme,
		Injected:       n.stats.Injected,
		Delivered:      n.stats.Delivered,
		LocalDelivered: n.stats.LocalDelivered,
		Launches:       n.stats.Launches,
		Drops:          n.stats.Drops,
		Retransmits:    n.stats.Retransmits,
		Circulations:   n.stats.Circulations,
		QueueRejected:  n.stats.QueueRejected,
		Pipeline:       n.injPipe.Len(),

		FaultsInjected:     n.stats.FaultsInjected,
		TimeoutRetransmits: n.stats.TimeoutRetransmits,
		TokensRegenerated:  n.stats.TokensRegenerated,
		Lost:               n.stats.Lost,
		DupsDiscarded:      n.stats.DupsDiscarded,
		AcksLost:           n.stats.AcksLost,
		NacksLost:          n.stats.NacksLost,
		Orphans:            n.orphans,
		DupsInFlight:       n.dupsInFlight,
		Holders:            n.holders,
		LivePackets:        n.live,
	}
	if n.faults != nil {
		counts := n.faults.Counts()
		a.FaultTokens = counts[fault.TokenLoss]
		a.FaultPulses = counts[fault.PulseLoss]
		a.FaultData = counts[fault.DataLoss]
		a.FaultStalls = counts[fault.NodeStall]
	}
	for i := range n.queues {
		a.Queued += n.queues[i].out.QueueLen()
		a.Unacked += n.queues[i].out.Unacked()
	}
	a.Channels = make([]ChannelAccounting, len(n.chans))
	for i := range n.chans {
		c := &n.chans[i]
		ch := ChannelAccounting{
			Home:         c.home,
			Launches:     c.data.Launches(),
			Reinjections: c.data.Reinjections(),
			Ejected:      c.in.Ejected(),
			InFlight:     c.data.InFlight(),
			Buffered:     c.in.Occupied(),
		}
		if c.hs != nil {
			ch.AcksSent, ch.NacksSent = c.hs.Sent()
			ch.AcksLost, ch.NacksLost = c.hs.Lost()
		}
		ch.DupsDiscarded = c.dupsDiscarded
		ch.FaultDiscards = c.faultDiscards
		a.InFlight += ch.InFlight
		a.Buffered += ch.Buffered
		a.Channels[i] = ch
	}
	a.Backlog = a.Pipeline + a.Queued + (a.InFlight - a.DupsInFlight) + a.Buffered + a.Orphans
	a.Outstanding = a.Pipeline + a.Queued + a.Unacked + a.InFlight + a.Buffered
	return a
}
