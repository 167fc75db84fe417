// Package trace provides the application-trace substrate of the
// evaluation. The paper extracts traces from a Simics full-system
// simulation (SunFire / UltraSPARC-III+ / Solaris 9) of 13 benchmarks; that
// stack is proprietary and unavailable, so this package substitutes a
// synthetic trace generator whose per-application parameters (mean
// injection rate, burstiness, destination locality, request/reply mix)
// reproduce the *network-relevant* character of each workload class:
// scientific OpenMP codes with phase-wise all-to-all bursts, PARSEC
// pipeline codes with low smooth rates, SPLASH-2 kernels with strided
// sharing, latency-bound NAS kernels with the highest rates (where the
// paper sees the largest gains), and a transactional SPECjbb mix.
//
// Traces are streams of (cycle, source core, destination node, class)
// records, serialisable in a compact varint binary format and replayable
// into a core.Network open-loop.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"photon/internal/router"
)

// Record is one injection event of a trace.
type Record struct {
	// Cycle is the injection cycle, non-decreasing along the trace.
	Cycle int64
	// SrcCore is the injecting core (global core id).
	SrcCore int32
	// DstNode is the destination node (L2 bank / cluster attachment).
	DstNode int32
	// Class tags the packet (data / request / reply).
	Class router.Class
}

// Trace is a complete workload: metadata plus its ordered records.
type Trace struct {
	// App is the benchmark name.
	App string
	// Cores and Nodes describe the CMP the trace was generated for.
	Cores int
	Nodes int
	// Cycles is the span of the trace (records lie in [0, Cycles)).
	Cycles int64
	// Records are the injections, sorted by cycle.
	Records []Record
}

// Rate returns the trace's mean injection rate in packets/cycle/core.
func (t *Trace) Rate() float64 {
	if t.Cycles == 0 || t.Cores == 0 {
		return 0
	}
	return float64(len(t.Records)) / float64(t.Cycles) / float64(t.Cores)
}

// Validate checks record ordering and ranges.
func (t *Trace) Validate() error {
	if t.Cores < 1 || t.Nodes < 1 {
		return fmt.Errorf("trace: bad shape %d cores / %d nodes", t.Cores, t.Nodes)
	}
	var prev int64 = -1
	for i, r := range t.Records {
		if r.Cycle < prev {
			return fmt.Errorf("trace: record %d out of order (cycle %d after %d)", i, r.Cycle, prev)
		}
		prev = r.Cycle
		if r.Cycle < 0 || r.Cycle >= t.Cycles {
			return fmt.Errorf("trace: record %d cycle %d outside [0,%d)", i, r.Cycle, t.Cycles)
		}
		if r.SrcCore < 0 || int(r.SrcCore) >= t.Cores {
			return fmt.Errorf("trace: record %d source core %d outside [0,%d)", i, r.SrcCore, t.Cores)
		}
		if r.DstNode < 0 || int(r.DstNode) >= t.Nodes {
			return fmt.Errorf("trace: record %d destination %d outside [0,%d)", i, r.DstNode, t.Nodes)
		}
	}
	return nil
}

const binaryMagic = "PHTR1\n"

// maxRecordPrealloc caps what ReadBinary allocates on the header's word
// alone (1.5 MiB of records); past it the slice grows as records are read.
const maxRecordPrealloc = 1 << 16

// WriteBinary serialises the trace in the compact varint format:
// magic, app name, shape, then per record the cycle delta, source core,
// destination node and class as unsigned varints.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.App))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.App); err != nil {
		return err
	}
	for _, v := range []uint64{uint64(t.Cores), uint64(t.Nodes), uint64(t.Cycles), uint64(len(t.Records))} {
		if err := putUvarint(v); err != nil {
			return err
		}
	}
	var prev int64
	for _, r := range t.Records {
		if err := putUvarint(uint64(r.Cycle - prev)); err != nil {
			return err
		}
		prev = r.Cycle
		if err := putUvarint(uint64(r.SrcCore)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.DstNode)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Class)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a trace written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, errors.New("trace: not a PHTR1 binary trace")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible app name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	var hdr [4]uint64
	for i := range hdr {
		if hdr[i], err = binary.ReadUvarint(br); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	t := &Trace{
		App:    string(name),
		Cores:  int(hdr[0]),
		Nodes:  int(hdr[1]),
		Cycles: int64(hdr[2]),
	}
	// The header's record count is a claim, not a fact: it sizes the
	// slice only up to a bound, so a lying header runs into EOF below
	// instead of into the allocator.
	if hdr[3] > 0 {
		t.Records = make([]Record, 0, min(hdr[3], maxRecordPrealloc))
	}
	var cyc int64
	for i := uint64(0); i < hdr[3]; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d cycle: %w", i, err)
		}
		cyc += int64(d)
		src, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d source: %w", i, err)
		}
		dst, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d destination: %w", i, err)
		}
		cls, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d class: %w", i, err)
		}
		t.Records = append(t.Records, Record{Cycle: cyc, SrcCore: int32(src), DstNode: int32(dst), Class: router.Class(cls)})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
