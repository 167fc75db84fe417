package ptrace

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"photon/internal/core"
)

// corpusSeeds are the well-formed streams seeding the fuzzer through
// f.Add: one per protocol shape, so mutation starts from every grammar
// branch rather than from noise. They are the one source of the seed
// corpus: the files under testdata/fuzz/FuzzAssemble carry the same bytes
// under stable names, and TestCorpusFilesMatchSeeds keeps them equal.
func corpusSeeds() [][]Record {
	return [][]Record{
		// Clean remote delivery.
		{
			pkt(10, core.EvInject, 1),
			pkt(12, core.EvEnqueue, 1),
			pkt(15, core.EvHeadReady, 1),
			pkt(20, core.EvLaunch, 1),
			pkt(28, core.EvAccept, 1),
			deliver(30, 1, 31),
			pkt(36, core.EvAck, 1),
		},
		// NACK and retransmission with setaside residency.
		{
			pkt(0, core.EvInject, 4),
			pkt(2, core.EvEnqueue, 4),
			pkt(3, core.EvHeadReady, 4),
			pkt(4, core.EvLaunch, 4),
			pkt(4, core.EvSetasideEnter, 4),
			pkt(10, core.EvDrop, 4),
			pkt(16, core.EvNack, 4),
			pkt(18, core.EvLaunch, 4),
			pkt(24, core.EvAccept, 4),
			deliver(25, 4, 26),
			pkt(30, core.EvAck, 4),
			pkt(30, core.EvSetasideExit, 4),
		},
		// Circulation loops.
		{
			pkt(0, core.EvInject, 2),
			pkt(2, core.EvEnqueue, 2),
			pkt(2, core.EvHeadReady, 2),
			pkt(3, core.EvLaunch, 2),
			pkt(9, core.EvReinject, 2),
			pkt(73, core.EvAccept, 2),
			deliver(74, 2, 75),
		},
		// Local delivery plus token meta traffic.
		{
			{Cycle: 3, Type: core.EvTokenCapture, Meta: true, Aux: 1<<32 | 5, DeliveredAt: -1},
			pkt(5, core.EvInject, 8),
			deliver(7, 8, 8),
			{Cycle: 9, Type: core.EvTokenRelease, Meta: true, Aux: 1<<32 | 5, DeliveredAt: -1},
		},
		// Fault-touched packet (lenient path).
		{
			pkt(0, core.EvInject, 6),
			pkt(2, core.EvEnqueue, 6),
			pkt(3, core.EvHeadReady, 6),
			pkt(4, core.EvLaunch, 6),
			pkt(40, core.EvTimeout, 6),
			pkt(41, core.EvLaunch, 6),
			pkt(47, core.EvAccept, 6),
			deliver(48, 6, 49),
		},
	}
}

// corpusFiles names the checked-in corpus file of each corpusSeeds entry,
// in order.
var corpusFiles = []string{
	"seed-clean-delivery",
	"seed-nack-setaside",
	"seed-circulation",
	"seed-local-and-token",
	"seed-fault-lenient",
}

// TestCorpusFilesMatchSeeds pins every checked-in corpus file to its f.Add
// seed: a file must hold exactly encodeRecords of the matching stream, in
// the `go test fuzz v1` encoding, and no other file may sit beside them.
func TestCorpusFilesMatchSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAssemble")
	seeds := corpusSeeds()
	if len(corpusFiles) != len(seeds) {
		t.Fatalf("%d corpus file names for %d seeds", len(corpusFiles), len(seeds))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := append([]string(nil), corpusFiles...)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("corpus files %v, want %v", names, want)
	}
	for i, name := range corpusFiles {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a single-[]byte `go test fuzz v1` file", name)
		}
		payload, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := encodeRecords(seeds[i]); !equalBytes([]byte(payload), got) {
			t.Errorf("%s differs from corpusSeeds()[%d]; write %q as its payload", name, i, got)
		}
	}
}

// FuzzAssemble fuzzes the decode→assemble pipeline: arbitrary bytes must
// either fail to decode, fail to assemble with an error, or produce
// spans that pass Validate. Panics (and invariant-violating spans) are
// the failure mode being hunted. Every decodable input also goes through
// the streaming assembler, differentially against the batch one.
func FuzzAssemble(f *testing.F) {
	for _, seed := range corpusSeeds() {
		f.Add(encodeRecords(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := decodeRecords(data)
		if err != nil {
			return
		}
		tr, err := Assemble(records)
		fuzzStream(t, records, tr, err)
		if err != nil {
			return
		}
		for _, s := range tr.Spans {
			if err := s.Validate(); err != nil {
				t.Fatalf("assembled span violates invariants: %v", err)
			}
		}
		// Round-trip: a decodable stream re-encodes to the same bytes.
		if got := encodeRecords(records); !equalBytes(got, data) {
			t.Fatalf("re-encoded stream differs from input")
		}
	})
}

// fuzzStream pushes the records through two streams and holds them to the
// batch outcome (tr, batchErr). With retirement disabled the stream is
// the batch assembler record for record: same verdict, same meta count,
// DeepEqual spans — except a packet a recovery event reached after its
// delivery, which the stream has already flushed clean (see Stream). With
// an 8-cycle window the stream may reject what the batch accepts (an ACK
// after its tombstone retired) but still flushes each packet at most once.
func fuzzStream(t *testing.T, records []Record, tr *TraceResult, batchErr error) {
	run := func(retireAfter int64) (map[uint64]*PacketSpan, int, error) {
		spans := make(map[uint64]*PacketSpan)
		var calls, metas int
		st := NewStream(StreamConfig{
			RetireAfter: retireAfter,
			OnSpan: func(sp *PacketSpan) error {
				calls++
				// A batch-valid stream injects each ID once, so a second
				// flush of an ID is the stream's own doing.
				if spans[sp.ID] != nil && batchErr == nil {
					t.Fatalf("RetireAfter %d: packet %d flushed twice", retireAfter, sp.ID)
				}
				spans[sp.ID] = cloneSpan(sp)
				return nil
			},
			OnMeta: func(Record) error { metas++; return nil },
		})
		for _, r := range records {
			if st.Push(r) != nil {
				break
			}
		}
		err := st.Close()
		if st.Flushed() != int64(calls) {
			t.Fatalf("RetireAfter %d: Flushed() = %d, OnSpan ran %d times", retireAfter, st.Flushed(), calls)
		}
		return spans, metas, err
	}

	run(8)

	// MaxInt64 disables retirement on every stream but one that itself
	// spans MaxInt64 cycles.
	if n := len(records); n > 0 && records[n-1].Cycle == math.MaxInt64 {
		return
	}
	spans, metas, err := run(math.MaxInt64)
	if (err == nil) != (batchErr == nil) {
		t.Fatalf("stream verdict %v, batch verdict %v", err, batchErr)
	}
	if err != nil {
		return
	}
	if len(spans) != len(tr.Spans) || metas != len(tr.Tokens)+len(tr.Faults) {
		t.Fatalf("stream: %d spans, %d meta records; batch: %d spans, %d meta records",
			len(spans), metas, len(tr.Spans), len(tr.Tokens)+len(tr.Faults))
	}
	for _, want := range tr.Spans {
		got := spans[want.ID]
		if reflect.DeepEqual(got, want) {
			continue
		}
		lateRecovery := got != nil && want.Faulted && !got.Faulted &&
			got.Delivered >= 0 && got.Delivered == want.Delivered && got.Injected == want.Injected
		if !lateRecovery {
			t.Fatalf("packet %d diverged:\n stream %+v\n batch  %+v", want.ID, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("span flushed before a late recovery event violates invariants: %v", err)
		}
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Records have a fixed-width little-endian wire form so the fuzzer can
// mutate a recorded stream: the assembler's error-not-panic contract is
// exercised by decoding arbitrary bytes and feeding them to Assemble.
//
// Layout (42 bytes per record):
//
//	off  0  type        u8
//	off  1  flags       u8   (bit 0: meta, bit 1: measured)
//	off  2  cycle       i64
//	off 10  id          u64
//	off 18  src         i32
//	off 22  dst         i32
//	off 26  aux         u64
//	off 34  deliveredAt i64
const recordSize = 42

const (
	flagMeta     = 1 << 0
	flagMeasured = 1 << 1
)

// encodeRecords serialises the stream in its recorded order.
func encodeRecords(records []Record) []byte {
	out := make([]byte, 0, len(records)*recordSize)
	var buf [recordSize]byte
	for _, r := range records {
		buf[0] = byte(r.Type)
		buf[1] = 0
		if r.Meta {
			buf[1] |= flagMeta
		}
		if r.Measured {
			buf[1] |= flagMeasured
		}
		binary.LittleEndian.PutUint64(buf[2:], uint64(r.Cycle))
		binary.LittleEndian.PutUint64(buf[10:], r.ID)
		binary.LittleEndian.PutUint32(buf[18:], uint32(r.Src))
		binary.LittleEndian.PutUint32(buf[22:], uint32(r.Dst))
		binary.LittleEndian.PutUint64(buf[26:], r.Aux)
		binary.LittleEndian.PutUint64(buf[34:], uint64(r.DeliveredAt))
		out = append(out, buf[:]...)
	}
	return out
}

// decodeRecords parses a serialised stream. It validates only the frame
// (length a whole number of records, known flag bits, event type in
// range); stream-level coherence is Assemble's job, so a decoded stream
// may still be arbitrarily malformed.
func decodeRecords(data []byte) ([]Record, error) {
	if len(data)%recordSize != 0 {
		return nil, fmt.Errorf("ptrace: %d bytes is not a whole number of %d-byte records", len(data), recordSize)
	}
	records := make([]Record, 0, len(data)/recordSize)
	for off := 0; off < len(data); off += recordSize {
		b := data[off : off+recordSize]
		if b[1]&^(flagMeta|flagMeasured) != 0 {
			return nil, fmt.Errorf("ptrace: record %d: unknown flag bits %#x", off/recordSize, b[1])
		}
		t := core.EventType(b[0])
		if t.String() == "event?" {
			return nil, fmt.Errorf("ptrace: record %d: unknown event type %d", off/recordSize, b[0])
		}
		records = append(records, Record{
			Type:        t,
			Meta:        b[1]&flagMeta != 0,
			Measured:    b[1]&flagMeasured != 0,
			Cycle:       int64(binary.LittleEndian.Uint64(b[2:])),
			ID:          binary.LittleEndian.Uint64(b[10:]),
			Src:         int32(binary.LittleEndian.Uint32(b[18:])),
			Dst:         int32(binary.LittleEndian.Uint32(b[22:])),
			Aux:         binary.LittleEndian.Uint64(b[26:]),
			DeliveredAt: int64(binary.LittleEndian.Uint64(b[34:])),
		})
	}
	return records, nil
}
