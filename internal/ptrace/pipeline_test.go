package ptrace

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"photon/internal/core"
	"photon/internal/fault"
	"photon/internal/router"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// eventOf rebuilds the event a record was copied from, so a recorded run
// can be replayed through Observe: recordOf(eventOf(r)) == r for every
// record a Tap takes.
func eventOf(r Record, p *router.Packet) core.Event {
	e := core.Event{Cycle: r.Cycle, Type: r.Type, Aux: r.Aux}
	if !r.Meta {
		*p = router.Packet{ID: r.ID, Src: int(r.Src), Dst: int(r.Dst), Measured: r.Measured, DeliveredAt: r.DeliveredAt}
		e.Packet = p
	}
	return e
}

// pipelineRun records the stream of one run TestStreamPipelineMatchesPush
// replays: the scheme under the bursty preset workload, or with chaos set
// under UR with ACK loss and recovery on, so faulted spans and fault meta
// records are in it.
func pipelineRun(t *testing.T, s core.Scheme, chaos bool) []Record {
	t.Helper()
	window := sim.Window{Warmup: 200, Measure: 1000, Drain: 800}
	cfg := core.DefaultConfig(s)
	cfg.Seed = 1
	w, _, err := traffic.PresetWorkload("bursty")
	if err != nil {
		t.Fatal(err)
	}
	if chaos {
		w = traffic.Bernoulli(0.04)
		cfg.Fault = fault.Config{Enabled: true, Warmup: window.Warmup}
		cfg.Fault = cfg.Fault.SetClass(fault.PulseLoss, fault.ClassConfig{Rate: 0.02, Burst: 2})
		cfg.Recovery.Enabled = true
	}
	net, err := core.NewNetwork(cfg, window)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewWorkloadInjector(w, traffic.UniformRandom{}, cfg.Nodes, cfg.CoresPerNode, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	tap := &Tap{}
	net.SetTracer(tap)
	inj.Run(net)
	return tap.Records
}

// callbackLog is what a stream's callbacks saw, in the order they ran:
// each entry a deep-copied span or a meta record.
type callbackLog []any

func (l *callbackLog) config() StreamConfig {
	return StreamConfig{
		OnSpan: func(sp *PacketSpan) error { *l = append(*l, *cloneSpan(sp)); return sp.Validate() },
		OnMeta: func(r Record) error { *l = append(*l, r); return nil },
	}
}

// streamStats is everything a stream reports about itself.
type streamStats struct {
	flushed int64
	maxLive int
	err     error
}

// feedPush assembles records through Push, the synchronous path.
func feedPush(t *testing.T, records []Record) (callbackLog, streamStats) {
	t.Helper()
	var log callbackLog
	st := NewStream(log.config())
	for _, r := range records {
		if err := st.Push(r); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	err := st.Close()
	return log, streamStats{st.Flushed(), st.MaxLive(), err}
}

// feedObserve assembles records through Observe, the pipelined path, at
// the given GOMAXPROCS.
func feedObserve(t *testing.T, records []Record, procs int) (callbackLog, streamStats) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var log callbackLog
	st := NewStream(log.config())
	var p router.Packet
	for _, r := range records {
		st.Observe(eventOf(r, &p))
	}
	err := st.Close()
	return log, streamStats{st.Flushed(), st.MaxLive(), err}
}

// TestStreamPipelineMatchesPush pins the pipeline to the synchronous
// assembler: records of real runs, fed through Observe (batched, and on
// two processors assembled on another goroutine) and through Push, make
// the same callbacks with the same spans and meta records in the same
// order, and leave the same stats — whether the stream ends one record
// short of a batch boundary, exactly on it, or one record past it.
func TestStreamPipelineMatchesPush(t *testing.T) {
	withPoison(t)
	runs := map[string][]Record{"chaos/" + core.GHSSetaside.String(): pipelineRun(t, core.GHSSetaside, true)}
	for _, s := range core.Schemes() {
		runs["bursty/"+s.String()] = pipelineRun(t, s, false)
	}
	for name, records := range runs {
		var p router.Packet
		for i, r := range records {
			if got := recordOf(eventOf(r, &p)); got != r {
				t.Fatalf("%s record %d does not survive the replay: %+v became %+v", name, i, r, got)
			}
		}
		if len(records) < 2*batchLen+1 {
			t.Fatalf("%s: %d records do not reach a second batch boundary", name, len(records))
		}
		for _, n := range []int{2*batchLen - 1, 2 * batchLen, 2*batchLen + 1, len(records)} {
			want, wantStats := feedPush(t, records[:n])
			if wantStats.err != nil {
				t.Fatalf("%s[:%d]: %v", name, n, wantStats.err)
			}
			if n == len(records) && strings.HasPrefix(name, "chaos/") && !slices.ContainsFunc(want, func(c any) bool {
				sp, ok := c.(PacketSpan)
				return ok && sp.Faulted
			}) {
				t.Fatalf("%s: no faulted span; the fault paths went unexercised", name)
			}
			for _, procs := range []int{1, 2} {
				got, gotStats := feedObserve(t, records[:n], procs)
				if gotStats != wantStats {
					t.Errorf("%s[:%d] GOMAXPROCS=%d: stats %+v, Push gives %+v", name, n, procs, gotStats, wantStats)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s[:%d] GOMAXPROCS=%d: %d callbacks differ from Push's %d", name, n, procs, len(got), len(want))
				}
			}
		}
	}
}

// TestStreamPipelineAccessors pins that the accessors, the error latch and
// Close mean on the pipelined stream what they mean on the synchronous
// one. Read between any two records, Flushed, MaxLive and Err equal the
// synchronous stream's after the same records. A callback failing at span
// k latches once the record that flushed span k is in; every record after
// it is ignored, and Close returns the error. Observe after Close latches
// the closed-stream error.
func TestStreamPipelineAccessors(t *testing.T) {
	records := pipelineRun(t, core.DHS, false)
	const failAt = 1000
	boom := errors.New("consumer rejected span")
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			failing := func(spans, metas *int) StreamConfig {
				return StreamConfig{
					OnSpan: func(*PacketSpan) error {
						if *spans++; *spans == failAt {
							return boom
						}
						return nil
					},
					OnMeta: func(Record) error { *metas++; return nil },
				}
			}
			var syncSpans, syncMetas, spans, metas int
			sync, st := NewStream(failing(&syncSpans, &syncMetas)), NewStream(failing(&spans, &metas))
			// One accessor per read, in turn: each must bring the stream
			// up to date by itself.
			accessors := []struct {
				name string
				get  func(*Stream) any
			}{
				{"Err", func(s *Stream) any { return s.Err() }},
				{"Flushed", func(s *Stream) any { return s.Flushed() }},
				{"MaxLive", func(s *Stream) any { return s.MaxLive() }},
			}
			var p router.Packet
			failed, reads := -1, 0
			for i, r := range records {
				syncErr := sync.Push(r)
				st.Observe(eventOf(r, &p))
				if failed < 0 && syncErr != nil {
					failed = i
				}
				// Read at a few points inside and across batches, and at
				// every record around the failure.
				if i%batchLen == batchLen-1 || i%997 == 0 || (failed >= 0 && i < failed+3) {
					a := accessors[reads%len(accessors)]
					if i == failed {
						a = accessors[0] // the record that latched the error
					}
					if got, want := a.get(st), a.get(sync); got != want {
						t.Fatalf("record %d: %s() = %v; Push gives %v", i, a.name, got, want)
					}
					reads++
				}
			}
			if failed < 0 || failed > len(records)-batchLen {
				t.Fatalf("span %d failed at record %d of %d; the test needs a batch of records after it", failAt, failed, len(records))
			}
			if st.Err() != boom || spans != failAt || metas != syncMetas {
				t.Fatalf("after the failure: Err %v, %d spans and %d metas delivered; want %v, %d and %d",
					st.Err(), spans, metas, boom, failAt, syncMetas)
			}
			if err := st.Close(); err != boom {
				t.Fatalf("Close returned %v, want the latched %v", err, boom)
			}

			clean := NewStream(StreamConfig{})
			for _, r := range records[:batchLen+10] {
				clean.Observe(eventOf(r, &p))
			}
			if err := clean.Close(); err != nil {
				t.Fatal(err)
			}
			clean.Observe(eventOf(records[batchLen+10], &p))
			if err := clean.Err(); err == nil || err.Error() != "ptrace: push into closed stream" {
				t.Fatalf("Observe after Close: Err %v", err)
			}
		})
	}
}

// panickingSpan is an OnSpan that panics at its first span.
func panickingSpan(*PacketSpan) error { panic("consumer fault") }

// TestStreamCallbackPanicReachesProducer: a callback that panics on the
// assembler goroutine panics the producer at its next hand-off, where the
// caller can recover it. The value recovered carries the callback's own
// panic and stack, and the stream is stopped with it as its error.
func TestStreamCallbackPanicReachesProducer(t *testing.T) {
	records := pipelineRun(t, core.GHS, false)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			st := NewStream(StreamConfig{OnSpan: panickingSpan})
			var p router.Packet
			got := func() (v any) {
				defer func() { v = recover() }()
				for _, r := range records {
					st.Observe(eventOf(r, &p))
				}
				st.drain()
				return nil
			}()
			cp, ok := got.(*callbackPanic)
			if !ok || cp.value != "consumer fault" {
				t.Fatalf("recovered %v, want the callback's panic", got)
			}
			if msg := cp.Error(); !strings.Contains(msg, "consumer fault") || !strings.Contains(msg, "ptrace.panickingSpan") {
				t.Fatalf("the panic lost the callback's stack:\n%s", msg)
			}
			if err := st.Close(); err != cp {
				t.Fatalf("Close returned %v, want the callback's panic", err)
			}
		})
	}
}

// TestStreamAbortKeepsTheRunsPanic: a run that panics while a batch whose
// callback panicked is in flight fails with its own panic, not the
// callback's. The deferred Abort waits for the batch, latches the
// callback's panic into Err, assembles nothing more and raises nothing.
func TestStreamAbortKeepsTheRunsPanic(t *testing.T) {
	records := pipelineRun(t, core.GHS, false)
	spans := 0
	st := NewStream(StreamConfig{OnSpan: func(sp *PacketSpan) error {
		spans++
		return panickingSpan(sp)
	}})
	var p router.Packet
	got := func() (v any) {
		defer func() { v = recover() }()
		defer st.Abort()
		// One record past a batch: the first batch is handed off, and the
		// run fails before it waits for it.
		for _, r := range records[:batchLen+1] {
			st.Observe(eventOf(r, &p))
		}
		panic("engine fault")
	}()
	if got != "engine fault" {
		t.Fatalf("recovered %v, want the run's own panic", got)
	}
	if cp, ok := st.Err().(*callbackPanic); !ok || cp.value != "consumer fault" {
		t.Fatalf("Err() = %v, want the callback's panic latched", st.Err())
	}
	if spans != 1 {
		t.Fatalf("%d spans reached the callback; the batch it panicked in should be its last", spans)
	}
	if err := st.Close(); err != st.Err() {
		t.Fatalf("Close after Abort returned %v, want the latched %v", err, st.Err())
	}
}

// TestStreamFeedOwnsItsCacheLines guards against false sharing between
// the simulation goroutine and the assembler: every field the producer
// writes lives in feed, and feed lies at least two cache lines from every
// other field of the Stream, all of which the assembler reads or writes.
func TestStreamFeedOwnsItsCacheLines(t *testing.T) {
	var s Stream
	from, to := unsafe.Offsetof(s.feed), unsafe.Offsetof(s.feed)+unsafe.Sizeof(s.feed)
	typ := reflect.TypeOf(s)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "feed" || f.Name == "_" {
			continue
		}
		start, end := f.Offset, f.Offset+f.Type.Size()
		var gap uintptr
		switch {
		case start >= to:
			gap = start - to
		case end <= from:
			gap = from - end
		}
		if gap < 128 {
			t.Errorf("Stream.%s at [%d,%d) is %d bytes from the producer's feed at [%d,%d); want at least 128",
				f.Name, start, end, gap, from, to)
		}
	}
}

// BenchmarkStreamObserve is BenchmarkStreamPush through Observe: the
// simulation goroutine's cost per record with the assembler on another
// goroutine (on one processor, batched inline), waits for it included.
func BenchmarkStreamObserve(b *testing.B) {
	for _, resident := range []int{1_000, 40_000} {
		b.Run(fmt.Sprintf("resident=%dk", resident/1000), func(b *testing.B) {
			st := NewStream(StreamConfig{OnSpan: func(sp *PacketSpan) error { return sp.Validate() }})
			var p router.Packet
			for id := 0; id < resident; id++ {
				st.Observe(eventOf(pkt(0, core.EvInject, uint64(id)), &p))
			}
			base := uint64(resident) + 8
			step := func(k int64) {
				for _, r := range steadyStep(base, k) {
					if r.ID >= base {
						st.Observe(eventOf(r, &p))
					}
				}
			}
			const warm = steadyWarm
			for k := int64(0); k < warm; k++ {
				step(k)
			}
			st.drain()
			b.ReportAllocs()
			b.ResetTimer()
			for k := int64(0); k < int64(b.N); k++ {
				step(warm + k)
			}
			st.drain()
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(steadyStep(0, 0))*b.N), "ns/record")
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
