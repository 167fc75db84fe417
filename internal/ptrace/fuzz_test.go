package ptrace

import (
	"encoding/binary"
	"fmt"
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

// retireSeeds are the f.Add seeds of the retirement paths, beside
// corpusSeeds: each ends in, or turns on, a packet's EvRetire.
// TestRetireSeedsReachTheirPaths holds each to the path it is named for.
func retireSeeds() [][]Record {
	clean := func(id uint64) []Record {
		return []Record{
			pkt(10, core.EvInject, id),
			pkt(12, core.EvEnqueue, id),
			pkt(15, core.EvHeadReady, id),
			pkt(20, core.EvLaunch, id),
			pkt(28, core.EvAccept, id),
			deliver(30, id, 31),
			pkt(36, core.EvAck, id),
		}
	}
	return [][]Record{
		// Retire before delivery: a packet still queued, and one in flight.
		{
			pkt(0, core.EvInject, 3),
			pkt(1, core.EvInject, 4),
			pkt(2, core.EvEnqueue, 3),
			pkt(3, core.EvEnqueue, 4),
			pkt(4, core.EvHeadReady, 4),
			pkt(6, core.EvLaunch, 4),
			pkt(7, core.EvRetire, 3),
			pkt(9, core.EvRetire, 4),
		},
		// Retire of a flushed cursor.
		append(clean(1), pkt(36, core.EvRetire, 1)),
		// Retire of an absorbing cursor: the ACK was lost, the timer fired.
		append(clean(1)[:6],
			pkt(48, core.EvTimeout, 1),
			pkt(50, core.EvLaunch, 1),
			pkt(58, core.EvDupDrop, 1),
			pkt(66, core.EvAck, 1),
			pkt(66, core.EvRetire, 1)),
		// A record after retirement, which both assemblers reject: of a
		// flushed packet the stream has forgotten, and of one it holds.
		append(clean(1)[:6],
			pkt(31, core.EvRetire, 1),
			pkt(36, core.EvAck, 1)),
		{
			pkt(0, core.EvInject, 5),
			pkt(2, core.EvRetire, 5),
			pkt(3, core.EvEnqueue, 5),
		},
	}
}

// TestRetireSeedsReachTheirPaths holds each retireSeeds entry to the path
// it seeds: a retirement before delivery holds the cursor to Close, which
// builds the same spans as batch; a flushed or absorbing cursor is deleted
// at its retirement; a record after retirement fails both assemblers.
func TestRetireSeedsReachTheirPaths(t *testing.T) {
	withPoison(t)
	seeds := retireSeeds()
	// push feeds a seed to a fresh stream and returns it with the spans it
	// flushed and the first error.
	push := func(records []Record) (*Stream, *[]*PacketSpan, error) {
		var spans []*PacketSpan
		st := NewStream(StreamConfig{OnSpan: func(sp *PacketSpan) error {
			spans = append(spans, cloneSpan(sp))
			return nil
		}})
		for _, r := range records {
			if err := st.Push(r); err != nil {
				return st, &spans, err
			}
		}
		return st, &spans, nil
	}

	st, spans, err := push(seeds[0])
	if err != nil || st.cursors.count() != 2 || len(*spans) != 0 {
		t.Fatalf("retired before delivery: err %v, %d cursors, %d spans; want both held", err, st.cursors.count(), len(*spans))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	batch := mustAssemble(t, seeds[0])
	if len(*spans) != 2 || !reflect.DeepEqual((*spans)[0], batch.Spans[0]) || !reflect.DeepEqual((*spans)[1], batch.Spans[1]) {
		t.Fatalf("Close flushed %+v, batch assembled %+v", *spans, batch.Spans)
	}
	if ph := (*spans)[0].Phases; len(ph) != 1 || ph[0] != (Phase{PhasePipeline, 0, 2}) {
		t.Fatalf("queued packet's span has phases %v; want its pipeline phase [0,2)", ph)
	}

	for i, name := range map[int]string{1: "flushed", 2: "absorbing"} {
		records := seeds[i]
		st, spans, err := push(records[:len(records)-1])
		a := st.cursors.get(1)
		switch {
		case err != nil:
			t.Fatalf("%s: %v", name, err)
		case a == nil || !a.flushed || len(*spans) != 1:
			t.Fatalf("%s: cursor %+v, %d spans before the retirement", name, a, len(*spans))
		case (a.state == stAbsorbing) != (name == "absorbing"):
			t.Fatalf("%s: cursor in state %s before the retirement", name, stateName(a.state))
		}
		if err := st.Push(records[len(records)-1]); err != nil || st.cursors.count() != 0 {
			t.Fatalf("%s: retirement left %d cursors (err %v); want the cursor deleted", name, st.cursors.count(), err)
		}
	}

	for _, records := range seeds[3:] {
		_, _, streamErr := push(records)
		_, batchErr := Assemble(records)
		if streamErr == nil || batchErr == nil {
			t.Fatalf("a record after retirement: stream error %v, batch error %v; want both to reject", streamErr, batchErr)
		}
		if !strings.Contains(batchErr.Error(), "after its retirement") {
			t.Fatalf("batch rejected the record after retirement for another reason: %v", batchErr)
		}
	}
}

// FuzzAssemble fuzzes the decode→assemble pipeline: arbitrary bytes must
// either fail to decode, fail to assemble with an error, or produce
// spans that pass Validate. Panics (and invariant-violating spans) are
// the failure mode being hunted. Every decodable input also goes through
// the streaming assembler, differentially against the batch one; the
// fuzzer puts EvRetire records (event type 18) wherever it likes.
func FuzzAssemble(f *testing.F) {
	for _, seed := range append(corpusSeeds(), retireSeeds()...) {
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

// fuzzStream pushes the records through a stream and holds it to the
// batch outcome (tr, batchErr): record for record the batch assembler —
// same verdict, same meta count, DeepEqual spans — except a packet a
// recovery event reached after its delivery, which the stream has already
// flushed clean, and an id injected again after its retirement, which the
// stream has forgotten (see Stream). Whatever the input, it flushes a
// packet at most once per injection.
func fuzzStream(t *testing.T, records []Record, tr *TraceResult, batchErr error) {
	spans := make(map[uint64]*PacketSpan)
	var calls, metas int
	st := NewStream(StreamConfig{
		OnSpan: func(sp *PacketSpan) error {
			calls++
			// A batch-valid stream injects each ID once, so a second
			// flush of an ID is the stream's own doing.
			if spans[sp.ID] != nil && batchErr == nil {
				t.Fatalf("packet %d flushed twice", sp.ID)
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
		t.Fatalf("Flushed() = %d, OnSpan ran %d times", st.Flushed(), calls)
	}

	if (err == nil) != (batchErr == nil) {
		if err == nil && reinjectsRetired(records) {
			return
		}
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

// reinjectsRetired reports whether a packet record injects an id after a
// record retired it.
func reinjectsRetired(records []Record) bool {
	retired := make(map[uint64]bool)
	for _, r := range records {
		switch {
		case r.Meta:
		case r.Type == core.EvRetire:
			retired[r.ID] = true
		case r.Type == core.EvInject && retired[r.ID]:
			return true
		}
	}
	return false
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
