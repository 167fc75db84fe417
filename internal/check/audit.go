// Package check is the simulator's correctness-tooling subsystem: a
// conservation auditor over core.Accounting snapshots, and a differential
// battery that replays identical traffic tapes through every scheme,
// proving run-to-run determinism (via core.Result digests), packet
// conservation, and serial-vs-parallel sweep equivalence. cmd/verify is
// its CLI; CI runs it as the one-command regression oracle that perf and
// refactoring PRs must keep green.
//
// The paper's handshake-vs-credit comparison (§V) rests on exact packet
// accounting — a scheme that silently loses or duplicates packets can
// "win" any throughput comparison — so the auditor encodes the
// conservation identities every scheme must satisfy, and the battery
// checks them at loads below, at, and past saturation.
package check

import (
	"fmt"
	"strings"

	"photon/internal/core"
)

// Audit verifies the packet-conservation identities on a snapshot. It
// returns nil when every identity holds, or an error listing all
// violations. The identities hold at any cycle (occupancy terms account
// for packets still owned by the network), so Audit may run mid-flight;
// the drained-only identities (NACK/retransmit balance) are applied only
// when Backlog is zero.
func Audit(a core.Accounting) error {
	var v []string
	fail := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}

	// End-to-end conservation: every injected packet is delivered, still
	// owned by the network, explicitly rejected by a bounded queue, or
	// permanently lost to a fault the scheme cannot recover from (Lost is
	// zero on every fault-free run and on every retention scheme).
	if got := a.Delivered + int64(a.Backlog) + a.QueueRejected + a.Lost; a.Injected != got {
		fail("injected %d != delivered %d + backlog %d + queue-rejected %d + lost %d",
			a.Injected, a.Delivered, a.Backlog, a.QueueRejected, a.Lost)
	}

	// Occupancy breakdowns must sum to the backlog (each undelivered
	// packet located exactly once: duplicate copies of accepted packets
	// are subtracted from in-flight, orphans stand in for destroyed
	// copies) and to the outstanding count (sender retention copies
	// included).
	if got := a.Pipeline + a.Queued + (a.InFlight - a.DupsInFlight) + a.Buffered + a.Orphans; a.Backlog != got {
		fail("backlog %d != pipeline %d + queued %d + (in-flight %d - dups %d) + buffered %d + orphans %d",
			a.Backlog, a.Pipeline, a.Queued, a.InFlight, a.DupsInFlight, a.Buffered, a.Orphans)
	}
	if got := a.Pipeline + a.Queued + a.Unacked + a.InFlight + a.Buffered; a.Outstanding != got {
		fail("outstanding %d != pipeline %d + queued %d + unacked %d + in-flight %d + buffered %d",
			a.Outstanding, a.Pipeline, a.Queued, a.Unacked, a.InFlight, a.Buffered)
	}

	// Packet lifetime: the engine counts one holder per place Outstanding
	// counts a packet, so the two agree at every cycle; a packet is live
	// only while held, so a quiescent network has released them all.
	if a.Holders != a.Outstanding {
		fail("packet holders %d != outstanding %d (a skipped or doubled release)", a.Holders, a.Outstanding)
	}
	if a.LivePackets > a.Outstanding || a.LivePackets < 0 {
		fail("%d live packets with only %d outstanding: leaked packets", a.LivePackets, a.Outstanding)
	}

	// Retransmission causality: every re-launch was triggered by a
	// delivered NACK (at most Drops - NacksLost of those exist) or by a
	// sender timeout. Equality holds at quiescence, inequality mid-flight
	// (triggers precede their re-launches).
	if a.Retransmits > (a.Drops-a.NacksLost)+a.TimeoutRetransmits {
		fail("retransmits %d exceed delivered NACKs (%d-%d) + timeouts %d",
			a.Retransmits, a.Drops, a.NacksLost, a.TimeoutRetransmits)
	}

	// Fault-counter cross-checks: the per-class fire counts must roll up
	// to the global counter, and the per-mechanism casualty counters must
	// match the class that causes them.
	if got := a.FaultTokens + a.FaultPulses + a.FaultData + a.FaultStalls; a.FaultsInjected != got {
		fail("faults-injected %d != tokens %d + pulses %d + data %d + stalls %d",
			a.FaultsInjected, a.FaultTokens, a.FaultPulses, a.FaultData, a.FaultStalls)
	}
	if got := a.AcksLost + a.NacksLost; a.FaultPulses != got {
		fail("pulse faults %d != ACKs lost %d + NACKs lost %d", a.FaultPulses, a.AcksLost, a.NacksLost)
	}

	// Fault-free runs must reduce exactly to the seed identities: the
	// recovery machinery may exist but must never have acted.
	if a.FaultsInjected == 0 {
		if a.Orphans != int(a.Drops-a.Retransmits) {
			fail("fault-free but orphans %d != drops %d - retransmits %d", a.Orphans, a.Drops, a.Retransmits)
		}
		if a.DupsInFlight != 0 || a.DupsDiscarded != 0 {
			fail("fault-free but duplicates exist (in-flight %d, discarded %d)", a.DupsInFlight, a.DupsDiscarded)
		}
		if a.Lost != 0 {
			fail("fault-free but %d packets lost", a.Lost)
		}
		if a.TimeoutRetransmits != 0 || a.TokensRegenerated != 0 {
			fail("fault-free but recovery acted (timeouts %d, regens %d)",
				a.TimeoutRetransmits, a.TokensRegenerated)
		}
	}

	// Per-channel launch accounting, rolled up to the global counters.
	var sumLaunch, sumReinj, sumEject, sumNack int64
	var sumDup, sumFaultDisc, sumAckLost, sumNackLost int64
	for _, ch := range a.Channels {
		sumLaunch += ch.Launches
		sumReinj += ch.Reinjections
		sumEject += ch.Ejected
		sumNack += ch.NacksSent
		sumDup += ch.DupsDiscarded
		sumFaultDisc += ch.FaultDiscards
		sumAckLost += ch.AcksLost
		sumNackLost += ch.NacksLost
		// Every launch onto channel h ends ejected, parked in the home
		// buffer, on the waveguide, dropped (NACKed), recognised as a
		// duplicate, or destroyed by a data fault. Reinjections cancel
		// out: each one is both an extra arrival and an extra departure
		// of the same waveguide.
		if got := ch.Ejected + int64(ch.Buffered+ch.InFlight) + ch.NacksSent +
			ch.DupsDiscarded + ch.FaultDiscards; ch.Launches != got {
			fail("channel %d: launches %d != ejected %d + buffered %d + in-flight %d + nacks %d + dups %d + fault-discards %d",
				ch.Home, ch.Launches, ch.Ejected, ch.Buffered, ch.InFlight,
				ch.NacksSent, ch.DupsDiscarded, ch.FaultDiscards)
		}
	}
	if sumLaunch != a.Launches {
		fail("per-channel launches %d != global launches %d", sumLaunch, a.Launches)
	}
	if sumReinj != a.Circulations {
		fail("per-channel reinjections %d != global circulations %d", sumReinj, a.Circulations)
	}
	if sumNack != a.Drops {
		fail("per-channel NACKs %d != global drops %d", sumNack, a.Drops)
	}
	if remote := a.Delivered - a.LocalDelivered; sumEject != remote {
		fail("per-channel ejections %d != remote deliveries %d", sumEject, remote)
	}
	if sumDup != a.DupsDiscarded {
		fail("per-channel duplicate discards %d != global %d", sumDup, a.DupsDiscarded)
	}
	if sumFaultDisc != a.FaultData {
		fail("per-channel fault discards %d != data faults fired %d", sumFaultDisc, a.FaultData)
	}
	if sumAckLost != a.AcksLost || sumNackLost != a.NacksLost {
		fail("per-channel lost pulses (%d ACK, %d NACK) != global (%d, %d)",
			sumAckLost, sumNackLost, a.AcksLost, a.NacksLost)
	}

	// Scheme-shape identities: counters that must be zero for schemes
	// lacking the corresponding hardware.
	if !a.Scheme.Handshake() && a.Drops != 0 {
		fail("%s has no handshake but recorded %d drops", a.Scheme, a.Drops)
	}
	if !a.Scheme.Handshake() && a.Retransmits != 0 {
		fail("%s has no handshake but recorded %d retransmits", a.Scheme, a.Retransmits)
	}
	if !a.Scheme.Circulating() && a.Circulations != 0 {
		fail("%s does not circulate but recorded %d circulations", a.Scheme, a.Circulations)
	}
	if !a.Scheme.Handshake() {
		if a.TimeoutRetransmits != 0 || a.DupsDiscarded != 0 || a.AcksLost != 0 || a.NacksLost != 0 {
			fail("%s has no handshake but recorded recovery traffic (timeouts %d, dups %d, lost pulses %d/%d)",
				a.Scheme, a.TimeoutRetransmits, a.DupsDiscarded, a.AcksLost, a.NacksLost)
		}
	}
	if a.Scheme.Handshake() && a.Lost != 0 {
		fail("%s retains senders' copies but recorded %d permanent losses", a.Scheme, a.Lost)
	}
	if a.Lost > a.FaultData {
		fail("lost %d packets but only %d data faults fired", a.Lost, a.FaultData)
	}

	// Quiescent-only identities: once the network owns nothing (handshake
	// state included), every NACK that was delivered produced exactly one
	// retransmission (lost NACKs are made up by timeouts), and every
	// accepted packet (first ACK or duplicate re-ACK) must have been
	// ejected or discarded as a duplicate.
	if a.Outstanding == 0 {
		if want := (a.Drops - a.NacksLost) + a.TimeoutRetransmits; a.Scheme.Handshake() && a.Retransmits != want {
			fail("drained but retransmits %d != delivered NACKs (%d-%d) + timeouts %d",
				a.Retransmits, a.Drops, a.NacksLost, a.TimeoutRetransmits)
		}
		for _, ch := range a.Channels {
			if a.Scheme.Handshake() && ch.AcksSent != ch.Ejected+ch.DupsDiscarded {
				fail("channel %d drained but ACKs %d != ejections %d + duplicate discards %d",
					ch.Home, ch.AcksSent, ch.Ejected, ch.DupsDiscarded)
			}
		}
	}

	if len(v) > 0 {
		return fmt.Errorf("check: conservation audit failed (%s):\n  %s",
			a.Scheme, strings.Join(v, "\n  "))
	}
	return nil
}

// AuditNetwork snapshots and audits a live network.
func AuditNetwork(n *core.Network) error {
	return Audit(n.Accounting())
}
