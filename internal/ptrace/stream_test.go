package ptrace

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/sim"
	"photon/internal/traffic"
)

var streamWindow = sim.Window{Warmup: 300, Measure: 1200, Drain: 1000}

// tapRun simulates one scheme at one load with a batch Tap armed and
// returns the run result plus the raw record stream.
func tapRun(t *testing.T, s core.Scheme, load float64) (core.Result, []Record) {
	t.Helper()
	return tapRunWindow(t, s, load, streamWindow)
}

func tapRunWindow(t *testing.T, s core.Scheme, load float64, window sim.Window, mod ...func(*core.Config)) (core.Result, []Record) {
	t.Helper()
	cfg := core.DefaultConfig(s)
	cfg.Seed = 1
	for _, m := range mod {
		m(&cfg)
	}
	net, err := core.NewNetwork(cfg, window)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(traffic.UniformRandom{}, load, cfg.Nodes, cfg.CoresPerNode, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	tap := &Tap{}
	net.SetTracer(tap)
	res := inj.Run(net)
	return res, tap.Records
}

// cloneSpan deep-copies a span inside OnSpan: the stream takes the buffer
// back when the callback returns.
func cloneSpan(sp *PacketSpan) *PacketSpan {
	c := *sp
	c.Phases = append([]Phase(nil), sp.Phases...)
	return &c
}

// withPoison runs the rest of the test with recycled span buffers
// overwritten, so a span read after its hand-off cannot pass for a packet.
func withPoison(t *testing.T) {
	poisonSpans = true
	t.Cleanup(func() { poisonSpans = false })
}

// streamAll pushes records through a fresh Stream and returns copies of
// the spans and the meta records it emitted, plus the stream for its stats.
func streamAll(t *testing.T, records []Record, cfg StreamConfig) ([]*PacketSpan, []Record, *Stream) {
	t.Helper()
	var spans []*PacketSpan
	var meta []Record
	userSpan := cfg.OnSpan
	cfg.OnSpan = func(s *PacketSpan) error {
		spans = append(spans, cloneSpan(s))
		if userSpan != nil {
			return userSpan(s)
		}
		return nil
	}
	cfg.OnMeta = func(r Record) error {
		meta = append(meta, r)
		return nil
	}
	st := NewStream(cfg)
	for _, r := range records {
		if err := st.Push(r); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return spans, meta, st
}

// TestStreamMatchesBatch pins the headline equivalence: for every
// registered scheme, feeding a Tap's records through the windowed Stream
// flushes exactly the spans Assemble builds — same set, same phases,
// same counters, complete at hand-off (recycled buffers are poisoned, and
// streamAll copies each span inside OnSpan) — while the resident cursor
// count stays far below the total packet population. Shallow, stalling
// receivers make the handshake schemes NACK.
func TestStreamMatchesBatch(t *testing.T) {
	withPoison(t)
	for _, s := range core.Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			_, records := tapRunWindow(t, s, 0.08, streamWindow, func(c *core.Config) {
				c.BufferDepth, c.EjectStallProb = 2, 0.5
			})
			batch, err := Assemble(records)
			if err != nil {
				t.Fatal(err)
			}
			// The attribution a consumer can fold inside OnSpan.
			var inc Attribution
			spans, meta, st := streamAll(t, records, StreamConfig{
				OnSpan: func(sp *PacketSpan) error {
					inc.AddSpan(sp, true)
					return sp.Validate()
				},
			})

			if len(spans) != len(batch.Spans) {
				t.Fatalf("stream flushed %d spans, batch assembled %d", len(spans), len(batch.Spans))
			}
			got := make(map[uint64]*PacketSpan, len(spans))
			for _, sp := range spans {
				if got[sp.ID] != nil {
					t.Fatalf("packet %d flushed twice", sp.ID)
				}
				got[sp.ID] = sp
			}
			for _, want := range batch.Spans {
				if !reflect.DeepEqual(got[want.ID], want) {
					t.Fatalf("packet %d diverged:\n stream %+v\n batch  %+v", want.ID, got[want.ID], want)
				}
			}
			if len(meta) != len(batch.Tokens)+len(batch.Faults) {
				t.Fatalf("stream forwarded %d meta records, batch kept %d", len(meta), len(batch.Tokens)+len(batch.Faults))
			}

			// Attribution folded inside OnSpan equals the batch aggregate
			// field for field, setaside residency included.
			want := Aggregate(batch, true)
			if inc != want {
				t.Fatalf("incremental attribution diverged:\n stream %+v\n batch  %+v", inc, want)
			}
			if spec, _ := core.LookupProtocol(s); spec.Handshake && want.Drops+want.Circulations == 0 {
				t.Fatalf("no NACK or circulation; the handshake paths went unexercised")
			}
			if (s == core.GHSSetaside || s == core.DHSSetaside) && want.Setaside == 0 {
				t.Fatalf("no setaside residency attributed")
			}

			if st.Flushed() != int64(len(spans)) {
				t.Fatalf("Flushed() = %d, emitted %d", st.Flushed(), len(spans))
			}
			if st.MaxLive() >= len(spans) {
				t.Fatalf("MaxLive %d did not bound memory below the %d-span population", st.MaxLive(), len(spans))
			}
			t.Logf("%s: %d spans, max %d live (%.1f%%), %d drops, setaside %d", s, len(spans), st.MaxLive(),
				100*float64(st.MaxLive())/float64(len(spans)), want.Drops, want.Setaside)
		})
	}
}

// TestStreamAsTracer runs the same deterministic tape twice — once under
// the batch Tap, once with the Stream attached as the live tracer — and
// checks both the run digest (tracers are digest-inert) and the
// attribution agree.
func TestStreamAsTracer(t *testing.T) {
	withPoison(t)
	scheme := core.GHS
	tape0 := core.DefaultConfig(scheme)
	tape, err := traffic.RecordTape(traffic.UniformRandom{}, 0.12, tape0.Nodes, tape0.CoresPerNode,
		7, streamWindow.Warmup+streamWindow.Measure)
	if err != nil {
		t.Fatal(err)
	}

	run := func(tr core.Tracer) core.Result {
		cfg := core.DefaultConfig(scheme)
		cfg.Seed = 1
		net, err := core.NewNetwork(cfg, streamWindow)
		if err != nil {
			t.Fatal(err)
		}
		net.SetTracer(tr)
		res, err := tape.Run(net)
		if err != nil {
			t.Fatal(err)
		}
		net.Drain(20_000)
		return res
	}

	tap := &Tap{}
	resTap := run(tap)
	batch, err := Assemble(tap.Records)
	if err != nil {
		t.Fatal(err)
	}

	var live Attribution
	st := NewStream(StreamConfig{OnSpan: func(sp *PacketSpan) error {
		if err := sp.Validate(); err != nil {
			return err
		}
		live.AddSpan(sp, true)
		return nil
	}})
	resStream := run(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if resTap.Digest != resStream.Digest {
		t.Fatalf("stream tracer perturbed the run: digest %016x vs %016x", resStream.Digest, resTap.Digest)
	}
	if live != Aggregate(batch, true) {
		t.Fatalf("live attribution diverged:\n stream %+v\n batch  %+v", live, Aggregate(batch, true))
	}
}

// TestStreamCloseFlushesTruncated feeds only a prefix of the stream and
// checks Close emits the in-flight remainder in (Injected, ID) order,
// matching the batch assembler on the same prefix.
func TestStreamCloseFlushesTruncated(t *testing.T) {
	_, records := tapRun(t, core.DHS, 0.12)
	half := records[:len(records)/2]
	batch, err := Assemble(half)
	if err != nil {
		t.Fatal(err)
	}
	spans, _, _ := streamAll(t, half, StreamConfig{})
	if len(spans) != len(batch.Spans) {
		t.Fatalf("stream emitted %d spans on the prefix, batch %d", len(spans), len(batch.Spans))
	}

	var undelivered []*PacketSpan
	for _, sp := range spans {
		if sp.Delivered < 0 {
			undelivered = append(undelivered, sp)
		}
	}
	if len(undelivered) == 0 {
		t.Fatal("truncated prefix left nothing in flight; test is vacuous")
	}
	ordered := sort.SliceIsSorted(undelivered, func(i, j int) bool {
		if undelivered[i].Injected != undelivered[j].Injected {
			return undelivered[i].Injected < undelivered[j].Injected
		}
		return undelivered[i].ID < undelivered[j].ID
	})
	if !ordered {
		t.Fatal("Close did not emit in-flight spans in (Injected, ID) order")
	}
}

// TestStreamRejectsMalformed pins the error latch: malformed input stops
// the stream, later pushes return the same error, Close refuses.
func TestStreamRejectsMalformed(t *testing.T) {
	st := NewStream(StreamConfig{})
	if err := st.Push(Record{Cycle: 5, Type: core.EvEnqueue, ID: 1}); err == nil {
		t.Fatal("event before injection accepted")
	}
	first := st.Err()
	if err := st.Push(Record{Cycle: 6, Type: core.EvInject, ID: 2}); err != first {
		t.Fatalf("latched error not sticky: %v vs %v", err, first)
	}
	if err := st.Close(); err != first {
		t.Fatalf("Close ignored the latched error: %v", err)
	}

	st = NewStream(StreamConfig{})
	if err := st.Push(Record{Cycle: 10, Type: core.EvInject, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Push(Record{Cycle: 4, Type: core.EvInject, ID: 2}); err == nil {
		t.Fatal("non-chronological stream accepted")
	}

	st = NewStream(StreamConfig{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Push(Record{Cycle: 0, Type: core.EvInject, ID: 1}); err == nil {
		t.Fatal("push into closed stream accepted")
	}
}

// TestStreamCallbackErrorLatches pins callback error propagation.
func TestStreamCallbackErrorLatches(t *testing.T) {
	_, records := tapRun(t, core.TokenSlot, 0.05)
	boom := fmt.Errorf("consumer rejected span")
	st := NewStream(StreamConfig{OnSpan: func(*PacketSpan) error { return boom }})
	var got error
	for _, r := range records {
		if got = st.Push(r); got != nil {
			break
		}
	}
	if got == nil {
		t.Fatal("no span ever flushed; test is vacuous")
	}
	if got.Error() != boom.Error() {
		t.Fatalf("callback error lost: %v", got)
	}
}

// TestStreamFlushesOncePastRecovery pins the lost-ACK path: a recovery
// event reaching a packet after its delivery must neither flush the span
// again nor touch the span the consumer already holds. Batch Assemble,
// which sees the whole stream first, marks the same packet Faulted.
func TestStreamFlushesOncePastRecovery(t *testing.T) {
	for _, late := range []core.EventType{core.EvTimeout, core.EvDupDrop, core.EvFault} {
		t.Run(late.String(), func(t *testing.T) {
			records := []Record{
				pkt(10, core.EvInject, 1),
				pkt(12, core.EvEnqueue, 1),
				pkt(15, core.EvHeadReady, 1),
				pkt(20, core.EvLaunch, 1),
				pkt(28, core.EvAccept, 1),
				deliver(30, 1, 31),
				pkt(48, late, 1),
				// The recovery grammar carries on: the timeout's copy
				// launches, is discarded at the home, and is ACKed again.
				pkt(50, core.EvLaunch, 1),
				pkt(58, core.EvDupDrop, 1),
				pkt(66, core.EvAck, 1),
			}
			// The buffer the span was handed over in is the free list's
			// after the flush: poisoned, it shows if the recovery grammar
			// that follows still writes to it.
			withPoison(t)
			var held *PacketSpan
			spans, _, st := streamAll(t, records, StreamConfig{OnSpan: func(sp *PacketSpan) error {
				held = sp
				return nil
			}})
			if len(spans) != 1 || st.Flushed() != 1 {
				t.Fatalf("OnSpan fired %d times, Flushed() = %d; want exactly one flush", len(spans), st.Flushed())
			}
			if held.ID != ^uint64(0) || held.Delivered != -2 || held.Launches != 1 || len(held.Phases) != 0 {
				t.Fatalf("span buffer written after hand-off: %+v", *held)
			}
			if sp := spans[0]; sp.Faulted || len(sp.Phases) != 5 || sp.Validate() != nil {
				t.Fatalf("flushed span lost its clean chain: %+v", sp)
			}
			if batch := mustAssemble(t, records); !spanOf(batch, 1).Faulted {
				t.Fatal("batch Assemble no longer marks the packet Faulted; the Stream comment describes a difference that is gone")
			}
		})
	}
}

// tee forwards every event to both tracers.
type tee struct{ a, b core.Tracer }

func (t tee) Observe(e core.Event) { t.a.Observe(e); t.b.Observe(e) }

// TestStreamChaosFlushesOnce arms the stream on live ACK-loss runs with
// recovery on — every lost ACK of an accepted packet ends in a sender
// timeout after the delivery — and checks no packet is flushed twice. On
// GHS the span left at delivery, so the stream keeps it clean where batch
// marks it Faulted; on GHS with setaside the slot is still held when the
// timer fires, the span has not left, and the stream marks it Faulted
// exactly as batch does.
func TestStreamChaosFlushesOnce(t *testing.T) {
	withPoison(t)
	for _, scheme := range []core.Scheme{core.GHS, core.GHSSetaside} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := core.DefaultConfig(scheme)
			cfg.Seed = 1
			cfg.Fault = fault.Config{Enabled: true, Warmup: streamWindow.Warmup}
			cfg.Fault = cfg.Fault.SetClass(fault.PulseLoss, fault.ClassConfig{Rate: 0.02, Burst: 2})
			cfg.Recovery.Enabled = true
			net, err := core.NewNetwork(cfg, streamWindow)
			if err != nil {
				t.Fatal(err)
			}
			inj, err := traffic.NewInjector(traffic.UniformRandom{}, 0.04, cfg.Nodes, cfg.CoresPerNode, 0x5EED)
			if err != nil {
				t.Fatal(err)
			}
			flushes := make(map[uint64]int)
			streamed := make(map[uint64]PacketSpan)
			st := NewStream(StreamConfig{OnSpan: func(sp *PacketSpan) error {
				flushes[sp.ID]++
				streamed[sp.ID] = *sp
				return sp.Validate()
			}})
			tap := &Tap{}
			net.SetTracer(tee{tap, st})
			inj.Run(net)
			net.Drain(60_000)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			for id, n := range flushes {
				if n != 1 {
					t.Fatalf("packet %d flushed %d times", id, n)
				}
			}
			if int64(len(flushes)) != st.Flushed() {
				t.Fatalf("Flushed() = %d, %d distinct packets flushed", st.Flushed(), len(flushes))
			}
			batch, err := Assemble(tap.Records)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch.Spans) != len(flushes) {
				t.Fatalf("stream flushed %d packets, batch assembled %d", len(flushes), len(batch.Spans))
			}

			// The case under test must have occurred: delivered packets a
			// recovery event reached afterwards. late counts those the
			// stream had already flushed clean, held those it still held
			// and marked Faulted with batch.
			delivered := make(map[uint64]bool)
			after := make(map[uint64]bool)
			for _, r := range tap.Records {
				switch r.Type {
				case core.EvDeliver:
					delivered[r.ID] = true
				case core.EvFault, core.EvTimeout, core.EvDupDrop:
					after[r.ID] = after[r.ID] || (!r.Meta && delivered[r.ID])
				}
			}
			var late, held int
			for _, sp := range batch.Spans {
				got := streamed[sp.ID]
				switch {
				case sp.Faulted && !got.Faulted && got.Delivered >= 0:
					late++
				case sp.Faulted && got.Faulted && after[sp.ID]:
					held++
				case sp.Faulted != got.Faulted:
					t.Fatalf("packet %d: stream Faulted=%v, batch Faulted=%v", sp.ID, got.Faulted, sp.Faulted)
				}
			}
			if scheme == core.GHS && late == 0 {
				t.Fatal("no recovery event reached a flushed packet; test is vacuous")
			}
			if scheme == core.GHSSetaside && (late != 0 || held == 0) {
				t.Fatalf("setaside: %d spans flushed before their slot's recovery, %d held and marked; want 0 and some", late, held)
			}
			if want := oracleMaxLive(tap.Records); st.MaxLive() != want {
				t.Fatalf("MaxLive %d, oracle %d", st.MaxLive(), want)
			}
			t.Logf("%d packets, %d flushed before a recovery event, %d held through one", len(flushes), late, held)
		})
	}
}

// liveOracle counts the packets a stream has to keep, from the record
// grammar alone: every injected packet except those whose span went to the
// consumer before they retired. A span goes when its packet has delivered
// with no setaside residency open and no recovery event before; a packet
// that retires without that is held to the end. It shares nothing with the
// stream's table.
type liveOracle struct {
	byID map[uint64]*oraclePkt
	live int
	peak int
}

type oraclePkt struct {
	delivered, setaside, recovered, flushed bool
}

func newLiveOracle() *liveOracle {
	return &liveOracle{byID: make(map[uint64]*oraclePkt)}
}

func (o *liveOracle) observe(r Record) {
	if r.Meta {
		return
	}
	p := o.byID[r.ID]
	switch r.Type {
	case core.EvInject:
		p = &oraclePkt{}
		o.byID[r.ID] = p
		o.live++
		o.peak = max(o.peak, o.live)
	case core.EvDeliver:
		p.delivered = true
	case core.EvSetasideEnter:
		p.setaside = true
	case core.EvSetasideExit:
		p.setaside = false
	case core.EvFault, core.EvTimeout, core.EvDupDrop:
		p.recovered = p.recovered || !p.flushed
	case core.EvRetire:
		delete(o.byID, r.ID)
		if p.flushed {
			o.live--
		}
		return
	}
	p.flushed = p.flushed || (p.delivered && !p.setaside && !p.recovered)
}

// oracleMaxLive replays a recorded stream through a liveOracle and returns
// the peak.
func oracleMaxLive(records []Record) int {
	o := newLiveOracle()
	for _, r := range records {
		o.observe(r)
	}
	return o.peak
}

// TestStreamMaxLiveExact pins that retirement is exact: the stream's
// residency high-water mark equals the oracle's, below and past
// saturation — where most of the live packets wait in their queues.
func TestStreamMaxLiveExact(t *testing.T) {
	window := sim.Window{Warmup: 100, Measure: 500, Drain: 400}
	for _, s := range core.Schemes() {
		for _, load := range []float64{0.04, 0.25} {
			_, records := tapRunWindow(t, s, load, window)
			_, _, st := streamAll(t, records, StreamConfig{})
			if want := oracleMaxLive(records); st.MaxLive() != want {
				t.Errorf("%s load %.2f: MaxLive %d, oracle %d", s, load, st.MaxLive(), want)
			}
		}
	}
}

// chain pushes the records of packet id's life after injection — the
// common 5-phase chain plus its trailing ACK and retirement — starting at
// cycle.
func chain(tb testing.TB, st *Stream, id uint64, cycle int64) {
	for _, r := range [...]Record{
		pkt(cycle+2, core.EvEnqueue, id),
		pkt(cycle+3, core.EvHeadReady, id),
		pkt(cycle+5, core.EvLaunch, id),
		pkt(cycle+9, core.EvAccept, id),
		deliver(cycle+10, id, cycle+11),
		pkt(cycle+14, core.EvAck, id),
		pkt(cycle+14, core.EvRetire, id),
	} {
		if err := st.Push(r); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestStreamPushAllocs guards the cursor layout: at steady state a packet
// on the common 5-phase chain allocates nothing — its cursor is a slot of
// the table's ring and its span buffer comes off the free list — and
// neither does any record after its injection.
func TestStreamPushAllocs(t *testing.T) {
	if size := unsafe.Sizeof(pktAsm{}); size != 56 {
		t.Errorf("a cursor header is %d bytes; DESIGN.md and the queued-packet cost it quotes say 56", size)
	}
	st := NewStream(StreamConfig{OnSpan: func(sp *PacketSpan) error { return sp.Validate() }})
	var id uint64
	var cycle int64
	packet := func() {
		id++
		cycle += 16 // past the previous chain: the stream stays chronological
		if err := st.Push(pkt(cycle, core.EvInject, id)); err != nil {
			t.Fatal(err)
		}
		chain(t, st, id, cycle)
	}
	// Warm up so the cursor table and the free list reach their steady size.
	for id < steadyWarm {
		packet()
	}
	if avg := testing.AllocsPerRun(500, packet); avg != 0 {
		t.Errorf("a 5-phase packet allocates %.2f times at steady state; want 0", avg)
	}

	// Inject a batch, then time only the records that follow injection.
	// AllocsPerRun calls its function once to warm up, then runs times.
	cycle += 16
	next := id
	for i := 0; i < 501; i++ {
		id++
		if err := st.Push(pkt(cycle, core.EvInject, id)); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(500, func() {
		next++
		cycle += 16
		chain(t, st, next, cycle)
	}); avg != 0 {
		t.Errorf("the records after a packet's injection allocate %.2f times per packet; want 0", avg)
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
}

// steadyWarm is how many steps of steadyStep, or packets of chain, bring
// a stream's cursor table and free list to their steady size.
const steadyWarm = 1024

// steadyStep returns step k of a steady inject→deliver→ACK→retire record
// mix: a packet is born every 2 cycles and lives 16, so a step holds one
// record of each kind, for seven different packets (the ACKed one retires
// in the same cycle). The first packets'
// early records predate the run: the caller skips records with an ID below
// base.
func steadyStep(base uint64, k int64) [8]Record {
	id, c := base+uint64(k), 2*k
	return [...]Record{
		pkt(c, core.EvInject, id),
		pkt(c, core.EvEnqueue, id-1),
		pkt(c, core.EvHeadReady, id-2),
		pkt(c, core.EvLaunch, id-3),
		pkt(c, core.EvAccept, id-5),
		deliver(c, id-6, c+1),
		pkt(c, core.EvAck, id-8),
		pkt(c, core.EvRetire, id-8),
	}
}

// TestStreamResidentBoundedByLive pins the straggler rule: packets that
// never deliver stay resident while a million ids pass, either 1,000 of
// them pinning the low end of the id space or one in every page's worth
// of ids, spread over the whole run. The cursor table must not stretch
// its window over the gap or keep a page per spread-out straggler — the
// bytes of its pages and pointer ring stay within a constant of the
// resident cursors' 56 bytes each — and MaxLive must still count the
// stragglers it moved aside.
func TestStreamResidentBoundedByLive(t *testing.T) {
	const packets = 1_000_000
	for _, tc := range []struct {
		name   string
		before int   // stragglers injected below the run
		every  int64 // and one in every `every` packets of the run, if > 0
		// most bounds the bytes of pages and pointer ring for maxLive
		// resident cursors.
		most func(maxLive int) int
	}{
		// Two pages of slack: a run of live ids straddles up to two partly
		// filled pages.
		{"contiguous", 1_000, 0, func(maxLive int) int { return 2*maxLive*56 + 2*pageBytes }},
		// The ring doubles only while its pages average pageLen/fillDiv
		// live cursors, so it has at most max(minRing, 4·fillDiv·maxLive /
		// pageLen) slots, and the pages made are never more than its slots.
		{"spread", 0, pageLen, func(maxLive int) int {
			slots := max(minRing, 4*fillDiv*maxLive/pageLen)
			return slots * (pageBytes + int(unsafe.Sizeof(pageRef{})))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStream(StreamConfig{})
			oracle := newLiveOracle()
			push := func(r Record) {
				oracle.observe(r)
				if err := st.Push(r); err != nil {
					t.Fatal(err)
				}
			}
			for id := uint64(0); id < uint64(tc.before); id++ {
				push(pkt(0, core.EvInject, id))
			}
			base := uint64(tc.before) + 8
			stragglers := tc.before
			for k := int64(0); k < packets; k++ {
				for _, r := range steadyStep(base, k) {
					// A spread-out straggler is injected and heard of no more.
					if r.ID >= base && (tc.every == 0 || int64(r.ID-base)%tc.every != 0 || r.Type == core.EvInject) {
						push(r)
					}
				}
				if tc.every > 0 && k%tc.every == 0 {
					stragglers++
				}
				if held, most := st.cursors.residentBytes(), tc.most(st.MaxLive()); held > most {
					t.Fatalf("step %d: %d bytes of pages and ring for at most %d resident cursors; want at most %d",
						k, held, st.MaxLive(), most)
				}
			}
			if st.MaxLive() != oracle.peak {
				t.Fatalf("MaxLive %d, oracle %d", st.MaxLive(), oracle.peak)
			}
			if got := st.cursors.count(); got < stragglers || got > oracle.peak {
				t.Fatalf("%d cursors resident at the end; want the %d stragglers and at most the peak %d", got, stragglers, oracle.peak)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// Every packet of the run is flushed once, delivered or at Close;
			// the stragglers below it are flushed at Close.
			if got, want := st.Flushed(), int64(packets+tc.before); got != want {
				t.Fatalf("flushed %d spans; want the %d packets and the %d stragglers below them", got, packets, tc.before)
			}
		})
	}
}

// BenchmarkStreamPush times a steady inject→deliver→ACK record mix with
// a standing population of undelivered packets resident, as past
// saturation. The per-record cost must not depend on that population, and
// B/op must not grow with -benchtime: resident memory follows the live
// cursors, not the ids that have passed.
func BenchmarkStreamPush(b *testing.B) {
	for _, resident := range []int{1_000, 40_000} {
		b.Run(fmt.Sprintf("resident=%dk", resident/1000), func(b *testing.B) {
			st := NewStream(StreamConfig{OnSpan: func(sp *PacketSpan) error { return sp.Validate() }})
			for id := 0; id < resident; id++ {
				if err := st.Push(pkt(0, core.EvInject, uint64(id))); err != nil {
					b.Fatal(err)
				}
			}
			base := uint64(resident) + 8
			step := func(k int64) {
				for _, r := range steadyStep(base, k) {
					if r.ID >= base {
						if err := st.Push(r); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			const warm = steadyWarm
			for k := int64(0); k < warm; k++ {
				step(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for k := int64(0); k < int64(b.N); k++ {
				step(warm + k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(steadyStep(0, 0))*b.N), "ns/record")
		})
	}
}
