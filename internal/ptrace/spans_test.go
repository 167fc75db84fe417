package ptrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"photon/internal/core"
)

// pkt builds a packet record.
func pkt(cycle int64, t core.EventType, id uint64) Record {
	return Record{Cycle: cycle, Type: t, ID: id, Src: 3, Dst: 7, Measured: true, DeliveredAt: -1}
}

// deliver builds a delivery record (fires at the ejection cycle,
// deliveredAt one EjectLatency later).
func deliver(cycle int64, id uint64, deliveredAt int64) Record {
	r := pkt(cycle, core.EvDeliver, id)
	r.DeliveredAt = deliveredAt
	return r
}

// spanOf returns the span of packet id, or nil.
func spanOf(tr *TraceResult, id uint64) *PacketSpan {
	for _, s := range tr.Spans {
		if s.ID == id {
			return s
		}
	}
	return nil
}

func mustAssemble(t *testing.T, records []Record) *TraceResult {
	t.Helper()
	tr, err := Assemble(records)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	for _, s := range tr.Spans {
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
	return tr
}

func wantPhases(t *testing.T, s *PacketSpan, want []Phase) {
	t.Helper()
	if len(s.Phases) != len(want) {
		t.Fatalf("packet %d: got %d phases %v, want %d %v", s.ID, len(s.Phases), s.Phases, len(want), want)
	}
	for i, p := range want {
		if s.Phases[i] != p {
			t.Fatalf("packet %d phase %d: got %+v, want %+v", s.ID, i, s.Phases[i], p)
		}
	}
}

func TestAssembleCleanDelivery(t *testing.T) {
	tr := mustAssemble(t, []Record{
		pkt(10, core.EvInject, 1),
		pkt(12, core.EvEnqueue, 1),
		pkt(15, core.EvHeadReady, 1),
		pkt(20, core.EvLaunch, 1),
		pkt(28, core.EvAccept, 1),
		deliver(30, 1, 31),
		pkt(36, core.EvAck, 1),
	})
	s := spanOf(tr, 1)
	if s == nil {
		t.Fatal("no span for packet 1")
	}
	wantPhases(t, s, []Phase{
		{PhasePipeline, 10, 12},
		{PhaseQueue, 12, 15},
		{PhaseTokenWait, 15, 20},
		{PhaseFlight, 20, 28},
		{PhaseEject, 28, 31},
	})
	if s.Latency() != 21 || s.PhaseSum() != 21 {
		t.Fatalf("latency %d, phase sum %d, want 21", s.Latency(), s.PhaseSum())
	}
	if s.Launches != 1 || s.Drops != 0 || s.Local || s.Faulted {
		t.Fatalf("bad counters: %+v", s)
	}
}

func TestAssembleNackRetransmit(t *testing.T) {
	tr := mustAssemble(t, []Record{
		pkt(0, core.EvInject, 9),
		pkt(2, core.EvEnqueue, 9),
		pkt(2, core.EvHeadReady, 9), // same-cycle head eligibility: zero-length queue phase
		pkt(5, core.EvLaunch, 9),
		pkt(11, core.EvDrop, 9),
		pkt(17, core.EvNack, 9),
		pkt(17, core.EvLaunch, 9), // relaunch the cycle the NACK landed
		pkt(23, core.EvAccept, 9),
		deliver(24, 9, 25),
		pkt(29, core.EvAck, 9),
	})
	s := spanOf(tr, 9)
	wantPhases(t, s, []Phase{
		{PhasePipeline, 0, 2},
		{PhaseQueue, 2, 2},
		{PhaseTokenWait, 2, 5},
		{PhaseFlight, 5, 11},
		{PhaseHandshakeWait, 11, 17},
		{PhaseRetxWait, 17, 17},
		{PhaseFlight, 17, 23},
		{PhaseEject, 23, 25},
	})
	if s.Launches != 2 || s.Drops != 1 {
		t.Fatalf("launches %d drops %d, want 2/1", s.Launches, s.Drops)
	}
	if s.PhaseSum() != s.Latency() {
		t.Fatalf("phase sum %d != latency %d", s.PhaseSum(), s.Latency())
	}
}

func TestAssembleSetasideResidency(t *testing.T) {
	tr := mustAssemble(t, []Record{
		pkt(0, core.EvInject, 4),
		pkt(2, core.EvEnqueue, 4),
		pkt(3, core.EvHeadReady, 4),
		pkt(4, core.EvLaunch, 4),
		pkt(4, core.EvSetasideEnter, 4), // parked on first launch only
		pkt(10, core.EvDrop, 4),
		pkt(16, core.EvNack, 4),
		pkt(18, core.EvLaunch, 4), // retransmission: no second enter
		pkt(24, core.EvAccept, 4),
		deliver(25, 4, 26),
		pkt(30, core.EvAck, 4),
		pkt(30, core.EvSetasideExit, 4),
	})
	s := spanOf(tr, 4)
	if s.Setaside != 26 {
		t.Fatalf("setaside residency %d, want 26", s.Setaside)
	}
	// Residency overlaps the phases; the sum must still be exact.
	if s.PhaseSum() != s.Latency() {
		t.Fatalf("phase sum %d != latency %d", s.PhaseSum(), s.Latency())
	}
	if s.Launches != 2 || s.Drops != 1 {
		t.Fatalf("launches %d drops %d, want 2/1", s.Launches, s.Drops)
	}
}

func TestAssembleCirculation(t *testing.T) {
	tr := mustAssemble(t, []Record{
		pkt(0, core.EvInject, 2),
		pkt(2, core.EvEnqueue, 2),
		pkt(2, core.EvHeadReady, 2),
		pkt(3, core.EvLaunch, 2),
		pkt(9, core.EvReinject, 2),  // home full: another loop
		pkt(73, core.EvReinject, 2), // still full
		pkt(137, core.EvAccept, 2),
		deliver(138, 2, 139),
	})
	s := spanOf(tr, 2)
	wantPhases(t, s, []Phase{
		{PhasePipeline, 0, 2},
		{PhaseQueue, 2, 2},
		{PhaseTokenWait, 2, 3},
		{PhaseFlight, 3, 9},
		{PhaseCirculation, 9, 73},
		{PhaseCirculation, 73, 137},
		{PhaseEject, 137, 139},
	})
	if s.Circulations != 2 {
		t.Fatalf("circulations %d, want 2", s.Circulations)
	}
}

func TestAssembleLocalDelivery(t *testing.T) {
	tr := mustAssemble(t, []Record{
		pkt(5, core.EvInject, 8),
		deliver(7, 8, 8),
	})
	s := spanOf(tr, 8)
	if !s.Local {
		t.Fatal("span not marked local")
	}
	wantPhases(t, s, []Phase{
		{PhasePipeline, 5, 7},
		{PhaseEject, 7, 8},
	})
}

func TestAssembleUndeliveredKeepsPrefix(t *testing.T) {
	tr := mustAssemble(t, []Record{
		pkt(0, core.EvInject, 1),
		pkt(2, core.EvEnqueue, 1),
		pkt(4, core.EvHeadReady, 1),
		pkt(6, core.EvLaunch, 1),
	})
	s := spanOf(tr, 1)
	if s.Delivered != -1 || s.Latency() != -1 {
		t.Fatalf("undelivered span reports delivery: %+v", s)
	}
	if len(s.Phases) != 3 { // pipeline, queue, token-wait; flight still open
		t.Fatalf("got %d phases, want 3 (open flight not closed)", len(s.Phases))
	}
}

func TestAssembleFaultedLenient(t *testing.T) {
	tr := mustAssemble(t, []Record{
		pkt(0, core.EvInject, 6),
		pkt(2, core.EvEnqueue, 6),
		pkt(3, core.EvHeadReady, 6),
		pkt(4, core.EvLaunch, 6),
		pkt(40, core.EvTimeout, 6), // fault recovery: exact attribution off
		pkt(41, core.EvLaunch, 6),
		pkt(47, core.EvAccept, 6),
		deliver(48, 6, 49),
	})
	s := spanOf(tr, 6)
	if !s.Faulted {
		t.Fatal("span not marked faulted")
	}
	if len(s.Phases) != 0 {
		t.Fatalf("faulted span kept phases: %v", s.Phases)
	}
	if s.Launches != 2 || s.Delivered != 49 {
		t.Fatalf("faulted counters wrong: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("faulted span must validate leniently: %v", err)
	}
}

func TestAssembleTokenMeta(t *testing.T) {
	tr := mustAssemble(t, []Record{
		{Cycle: 3, Type: core.EvTokenCapture, Meta: true, Aux: 77, DeliveredAt: -1},
		{Cycle: 9, Type: core.EvTokenRelease, Meta: true, Aux: 77, DeliveredAt: -1},
	})
	if len(tr.Tokens) != 2 || len(tr.Spans) != 0 {
		t.Fatalf("got %d tokens %d spans, want 2/0", len(tr.Tokens), len(tr.Spans))
	}
}

func TestAssembleMalformedStreams(t *testing.T) {
	cases := []struct {
		name    string
		records []Record
		errHint string
	}{
		{"event before inject", []Record{pkt(1, core.EvEnqueue, 1)}, "before its injection"},
		{"duplicate inject", []Record{pkt(1, core.EvInject, 1), pkt(2, core.EvInject, 1)}, "injected twice"},
		{"not chronological", []Record{pkt(5, core.EvInject, 1), pkt(3, core.EvEnqueue, 1)}, "not chronological"},
		{"negative cycle", []Record{pkt(-1, core.EvInject, 1)}, "negative cycle"},
		{"accept before launch", []Record{pkt(0, core.EvInject, 1), pkt(1, core.EvEnqueue, 1), pkt(2, core.EvAccept, 1)}, "accept for enqueued"},
		{"nack without drop", []Record{pkt(0, core.EvInject, 1), pkt(1, core.EvEnqueue, 1), pkt(2, core.EvHeadReady, 1), pkt(3, core.EvLaunch, 1), pkt(4, core.EvNack, 1)}, "nack for in-flight"},
		{"meta with packet type", []Record{{Cycle: 0, Type: core.EvLaunch, Meta: true}}, "meta record"},
		{"packet with meta type", []Record{pkt(0, core.EvTokenCapture, 1)}, "meta event type"},
		{"delivery before event", []Record{pkt(0, core.EvInject, 1), deliver(5, 1, 4)}, "delivered at 4 before"},
		{"setaside exit unentered", []Record{pkt(0, core.EvInject, 1), pkt(1, core.EvSetasideExit, 1)}, "setaside-exit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.records)
			if err == nil {
				t.Fatal("malformed stream assembled without error")
			}
			if !strings.Contains(err.Error(), c.errHint) {
				t.Fatalf("error %q does not mention %q", err, c.errHint)
			}
		})
	}
}

func TestAggregate(t *testing.T) {
	unmeasured := pkt(0, core.EvInject, 1)
	unmeasured.Measured = false
	tr := mustAssemble(t, []Record{
		unmeasured,
		pkt(2, core.EvEnqueue, 1),
		pkt(3, core.EvHeadReady, 1),
		pkt(5, core.EvLaunch, 1),
		pkt(9, core.EvAccept, 1),
		deliver(10, 1, 11),
		pkt(12, core.EvInject, 2),
		deliver(14, 2, 15),
	})
	all := Aggregate(tr, false)
	if all.Spans != 2 || all.Local != 1 {
		t.Fatalf("aggregate spans=%d local=%d, want 2/1", all.Spans, all.Local)
	}
	if all.Total != 11+3 {
		t.Fatalf("aggregate total %d, want 14", all.Total)
	}
	if got := all.Phases[PhaseTokenWait]; got != 2 {
		t.Fatalf("token-wait cycles %d, want 2", got)
	}
	measured := Aggregate(tr, true)
	if measured.Spans != 1 || measured.Local != 1 {
		t.Fatalf("measured-only spans=%d local=%d, want 1/1", measured.Spans, measured.Local)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	records := []Record{
		pkt(10, core.EvInject, 1),
		pkt(12, core.EvEnqueue, 1),
		{Cycle: 13, Type: core.EvTokenCapture, Meta: true, Aux: 1<<40 | 5, DeliveredAt: -1},
		deliver(20, 1, 21),
	}
	data := encodeRecords(records)
	if len(data) != len(records)*recordSize {
		t.Fatalf("encoded %d bytes, want %d", len(data), len(records)*recordSize)
	}
	back, err := decodeRecords(data)
	if err != nil {
		t.Fatalf("decodeRecords: %v", err)
	}
	if len(back) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(back), len(records))
	}
	for i := range records {
		if back[i] != records[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, back[i], records[i])
		}
	}
	if _, err := decodeRecords(data[:recordSize-1]); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	bad := append([]byte(nil), data...)
	bad[1] = 0xff // unknown flag bits
	if _, err := decodeRecords(bad); err == nil {
		t.Fatal("unknown flags decoded without error")
	}
}

// TestExporters drives both exporters the way verify -trace does: the
// chrome writer and the flame fold consume a Stream's output as it runs.
func TestExporters(t *testing.T) {
	records := []Record{
		pkt(0, core.EvInject, 1),
		pkt(2, core.EvEnqueue, 1),
		pkt(3, core.EvHeadReady, 1),
		pkt(5, core.EvLaunch, 1),
		pkt(5, core.EvSetasideEnter, 1),
		{Cycle: 5, Type: core.EvTokenCapture, Meta: true, Aux: 42, DeliveredAt: -1},
		{Cycle: 6, Type: core.EvFault, Meta: true, Aux: 7, DeliveredAt: -1},
		pkt(9, core.EvAccept, 1),
		deliver(10, 1, 11),
		pkt(12, core.EvSetasideExit, 1),
	}
	var chrome bytes.Buffer
	var local, remote Attribution
	ct := NewChromeTrace(&chrome)
	st := NewStream(StreamConfig{OnMeta: ct.Meta, OnSpan: func(s *PacketSpan) error {
		if s.Local {
			local.AddSpan(s, false)
		} else {
			remote.AddSpan(s, false)
		}
		return ct.Span(s)
	}})
	for _, r := range records {
		if err := st.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ct.Close(); err != nil {
		t.Fatalf("ChromeTrace.Close: %v", err)
	}
	out := chrome.String()
	for _, want := range []string{`"ph":"X"`, `"name":"token-wait"`, `"name":"token-capture"`, `"name":"setaside"`, `"name":"fault"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %s:\n%s", want, out)
		}
	}
	// The event-by-event writer produces the bytes json.Encoder.Encode
	// gives the whole array.
	var events []chromeEvent
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array of events: %v\n%s", err, out)
	}
	var whole bytes.Buffer
	if err := json.NewEncoder(&whole).Encode(events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 || whole.String() != out {
		t.Fatalf("chrome trace of %d events is not the array encoding:\n got  %s want %s", len(events), out, whole.String())
	}
	chrome.Reset()
	if err := NewChromeTrace(&chrome).Close(); err != nil || chrome.String() != "[]\n" {
		t.Fatalf("empty chrome trace: %q, %v; want \"[]\\n\"", chrome.String(), err)
	}
	var flame bytes.Buffer
	if err := WriteFlame(&flame, local, remote, "test"); err != nil {
		t.Fatalf("WriteFlame: %v", err)
	}
	if !strings.Contains(flame.String(), "test;remote;flight 4") {
		t.Fatalf("flame output missing flight line:\n%s", flame.String())
	}
}
