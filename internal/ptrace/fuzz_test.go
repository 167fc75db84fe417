package ptrace

import (
	"math"
	"reflect"
	"testing"

	"photon/internal/core"
)

// corpusSeeds are the well-formed streams seeding the fuzzer (also
// checked in under testdata/fuzz/FuzzAssemble, regenerated with
// `go run gen_corpus.go`): one per protocol shape, so mutation starts
// from every grammar branch rather than from noise.
func corpusSeeds() [][]Record {
	return [][]Record{
		// Clean remote delivery.
		{
			pktR(10, core.EvInject, 1),
			pktR(12, core.EvEnqueue, 1),
			pktR(15, core.EvHeadReady, 1),
			pktR(20, core.EvLaunch, 1),
			pktR(28, core.EvAccept, 1),
			deliverR(30, 1, 31),
			pktR(36, core.EvAck, 1),
		},
		// NACK and retransmission with setaside residency.
		{
			pktR(0, core.EvInject, 4),
			pktR(2, core.EvEnqueue, 4),
			pktR(3, core.EvHeadReady, 4),
			pktR(4, core.EvLaunch, 4),
			pktR(4, core.EvSetasideEnter, 4),
			pktR(10, core.EvDrop, 4),
			pktR(16, core.EvNack, 4),
			pktR(18, core.EvLaunch, 4),
			pktR(24, core.EvAccept, 4),
			deliverR(25, 4, 26),
			pktR(30, core.EvAck, 4),
			pktR(30, core.EvSetasideExit, 4),
		},
		// Circulation loops.
		{
			pktR(0, core.EvInject, 2),
			pktR(2, core.EvEnqueue, 2),
			pktR(2, core.EvHeadReady, 2),
			pktR(3, core.EvLaunch, 2),
			pktR(9, core.EvReinject, 2),
			pktR(73, core.EvAccept, 2),
			deliverR(74, 2, 75),
		},
		// Local delivery plus token meta traffic.
		{
			{Cycle: 3, Type: core.EvTokenCapture, Meta: true, Aux: 1<<32 | 5, DeliveredAt: -1},
			pktR(5, core.EvInject, 8),
			deliverR(7, 8, 8),
			{Cycle: 9, Type: core.EvTokenRelease, Meta: true, Aux: 1<<32 | 5, DeliveredAt: -1},
		},
		// Fault-touched packet (lenient path).
		{
			pktR(0, core.EvInject, 6),
			pktR(2, core.EvEnqueue, 6),
			pktR(3, core.EvHeadReady, 6),
			pktR(4, core.EvLaunch, 6),
			pktR(40, core.EvTimeout, 6),
			pktR(41, core.EvLaunch, 6),
			pktR(47, core.EvAccept, 6),
			deliverR(48, 6, 49),
		},
	}
}

func pktR(cycle int64, t core.EventType, id uint64) Record {
	return Record{Cycle: cycle, Type: t, ID: id, Src: 3, Dst: 7, Measured: true, DeliveredAt: -1}
}

func deliverR(cycle int64, id uint64, deliveredAt int64) Record {
	r := pktR(cycle, core.EvDeliver, id)
	r.DeliveredAt = deliveredAt
	return r
}

// FuzzAssemble fuzzes the decode→assemble pipeline: arbitrary bytes must
// either fail to decode, fail to assemble with an error, or produce
// spans that pass Validate. Panics (and invariant-violating spans) are
// the failure mode being hunted. Every decodable input also goes through
// the streaming assembler, differentially against the batch one.
func FuzzAssemble(f *testing.F) {
	for _, seed := range corpusSeeds() {
		f.Add(EncodeRecords(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := DecodeRecords(data)
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
		if got := EncodeRecords(records); !equalBytes(got, data) {
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
