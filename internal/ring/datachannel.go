package ring

import (
	"fmt"

	"photon/internal/sim"
)

// DataChannel is the wave-pipelined optical data channel owned by one home
// node (the single reader of an MWSR channel). It tracks flits in flight
// and enforces the physical exclusivity of each channel segment: two flits
// may never occupy the same arrival slot, because that would mean two light
// pulses overlapping in the waveguide. Arbitration schemes are responsible
// for never causing that; the channel turns any violation into an error so
// scheme bugs surface immediately instead of silently corrupting results.
type DataChannel[T any] struct {
	geom    *Geometry
	inFlit  *sim.SlotLine[T]
	lastDue int64
	sends   int64
	reinjs  int64
	maxLoad int
}

// NewDataChannel builds a data channel over the given loop geometry.
func NewDataChannel[T any](geom *Geometry) *DataChannel[T] {
	// Horizon: the longest booking is a reinjection (R+1 cycles ahead);
	// double it for slack.
	return &DataChannel[T]{
		geom:   geom,
		inFlit: sim.NewSlotLine[T](2*geom.RoundTrip() + 4),
	}
}

// Launch books the channel for a flit sent at cycle now from downstream
// offset p; the flit will arrive at the home node at now+FlightToHome(p).
// The returned cycle is the arrival time. An *sim.ErrSlotTaken error means
// the caller's arbitration double-booked the waveguide.
func (c *DataChannel[T]) Launch(now int64, p int, flit T) (int64, error) {
	due := now + int64(c.geom.FlightToHome(p))
	if err := c.inFlit.Schedule(now, due, flit); err != nil {
		return 0, fmt.Errorf("ring: data channel collision launching from offset %d at cycle %d: %w", p, now, err)
	}
	c.sends++
	if due > c.lastDue {
		c.lastDue = due
	}
	if c.inFlit.Len() > c.maxLoad {
		c.maxLoad = c.inFlit.Len()
	}
	return due, nil
}

// LaunchStream books the channel for a flit sent at cycle now from offset
// p under *global* arbitration, where the relayed token rides directly
// behind the previous flit's tail. Consecutive launches therefore form a
// back-to-back stream: if the nominal arrival cycle is already occupied by
// the immediately preceding flit, this flit lands in the next slot — the
// discrete rendering of sub-cycle wave-pipelined alignment. Launch order
// equals arrival order, so the channel stays a FIFO pipe.
func (c *DataChannel[T]) LaunchStream(now int64, p int, flit T) (int64, error) {
	due := now + int64(c.geom.FlightToHome(p))
	if due <= c.lastDue {
		due = c.lastDue + 1
	}
	if err := c.inFlit.Schedule(now, due, flit); err != nil {
		return 0, fmt.Errorf("ring: data channel stream collision from offset %d at cycle %d: %w", p, now, err)
	}
	c.sends++
	c.lastDue = due
	if c.inFlit.Len() > c.maxLoad {
		c.maxLoad = c.inFlit.Len()
	}
	return due, nil
}

// Reinject books the channel for a flit the home node puts back onto its
// own channel at cycle now (DHS with circulation). The home virtually
// consumes the token it would have emitted this cycle, so the flit takes
// that token's arrival slot: now + R + 1.
func (c *DataChannel[T]) Reinject(now int64, flit T) (int64, error) {
	due := now + int64(c.geom.RoundTrip()) + 1
	if err := c.inFlit.Schedule(now, due, flit); err != nil {
		return 0, fmt.Errorf("ring: data channel collision reinjecting at cycle %d: %w", now, err)
	}
	c.reinjs++
	if due > c.lastDue {
		c.lastDue = due
	}
	return due, nil
}

// Arrival returns the flit (if any) landing at the home node this cycle.
// The caller need not ask in cycles with nothing due: every booking
// returns its due cycle, and the engine keeps those in a calendar.
func (c *DataChannel[T]) Arrival(now int64) (T, bool) {
	return c.inFlit.PopDue(now)
}

// InFlight reports how many flits are currently on the channel.
func (c *DataChannel[T]) InFlight() int { return c.inFlit.Len() }

// Launches reports the cumulative number of sender launches.
func (c *DataChannel[T]) Launches() int64 { return c.sends }

// Reinjections reports the cumulative number of home reinjections.
func (c *DataChannel[T]) Reinjections() int64 { return c.reinjs }

// PeakInFlight reports the largest number of simultaneously in-flight
// flits observed — bounded by R+1 on a correctly arbitrated channel, a fact
// the invariant tests check.
func (c *DataChannel[T]) PeakInFlight() int { return c.maxLoad }
