package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"photon/internal/core"
	"photon/internal/router"
	"photon/internal/sim"
)

func sampleTrace() *Trace {
	return &Trace{
		App: "demo", Cores: 8, Nodes: 4, Cycles: 100,
		Records: []Record{
			{Cycle: 0, SrcCore: 0, DstNode: 1, Class: router.ClassData},
			{Cycle: 0, SrcCore: 3, DstNode: 2, Class: router.ClassRequest},
			{Cycle: 5, SrcCore: 7, DstNode: 0, Class: router.ClassReply},
			{Cycle: 99, SrcCore: 1, DstNode: 3, Class: router.ClassData},
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tr, got)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 2, len(full) - 1, 7} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated trace (at %d) accepted", cut)
		}
	}
}

// TestBinaryRejectsLyingCount: the header's record count is untrusted. A
// file claiming more records than it holds must end in the truncation
// error without allocating for the claim (2^62 records used to panic in
// makeslice; 2^31 would have asked for 48 GiB).
func TestBinaryRejectsLyingCount(t *testing.T) {
	tr := sampleTrace()
	for _, claim := range []uint64{uint64(len(tr.Records)) + 1, 1 << 31, 1 << 62} {
		file := encodeWithCount(t, tr, claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "record 4 cycle") || !errors.Is(err, io.EOF) {
			t.Errorf("count %d over 4 records: err = %v, want the record-4 EOF", claim, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("count %d over 4 records: allocated %d bytes", claim, grew)
		}
	}
}

// encodeWithCount writes tr with its header's record count replaced.
func encodeWithCount(t *testing.T, tr *Trace, count uint64) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := tr.WriteBinary(&body); err != nil {
		t.Fatal(err)
	}
	// Header: magic, name length, name, cores, nodes, cycles — all
	// single-byte varints for sampleTrace — then the count.
	at := len(binaryMagic) + 1 + len(tr.App) + 3
	if got, n := binary.Uvarint(body.Bytes()[at:]); got != uint64(len(tr.Records)) || n != 1 {
		t.Fatalf("count not at offset %d", at)
	}
	out := append([]byte(nil), body.Bytes()[:at]...)
	out = binary.AppendUvarint(out, count)
	return append(out, body.Bytes()[at+1:]...)
}

// TestBinaryRejectsBadSpan: a trace spans at least one cycle. A header
// claiming none, or a span past 2^63 that the int64 cast turns negative,
// is refused on read, and WriteBinary writes no byte of such a trace.
func TestBinaryRejectsBadSpan(t *testing.T) {
	tr := sampleTrace()
	tr.Records = nil
	var body bytes.Buffer
	if err := tr.WriteBinary(&body); err != nil {
		t.Fatal(err)
	}
	// Header: magic, name length, name, cores, nodes — single-byte
	// varints for sampleTrace — then the one-byte span.
	at := len(binaryMagic) + 1 + len(tr.App) + 2
	for _, span := range []uint64{0, 1 << 63, math.MaxUint64} {
		file := binary.AppendUvarint(append([]byte(nil), body.Bytes()[:at]...), span)
		file = append(file, body.Bytes()[at+1:]...)
		if _, err := ReadBinary(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), "trace: span of ") {
			t.Errorf("span %d: err = %v, want the span error", span, err)
		}
	}
	for _, cycles := range []int64{0, -5} {
		tr.Cycles = cycles
		var out bytes.Buffer
		if err := tr.WriteBinary(&out); err == nil || out.Len() != 0 {
			t.Errorf("WriteBinary of a %d-cycle span: err = %v, %d bytes written", cycles, err, out.Len())
		}
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	cases := map[string]*Trace{
		"out-of-order": {App: "x", Cores: 4, Nodes: 4, Cycles: 10,
			Records: []Record{{Cycle: 5}, {Cycle: 3}}},
		"cycle-range": {App: "x", Cores: 4, Nodes: 4, Cycles: 10,
			Records: []Record{{Cycle: 10}}},
		"bad-core": {App: "x", Cores: 4, Nodes: 4, Cycles: 10,
			Records: []Record{{Cycle: 1, SrcCore: 4}}},
		"bad-node": {App: "x", Cores: 4, Nodes: 4, Cycles: 10,
			Records: []Record{{Cycle: 1, DstNode: 4}}},
		"bad-shape":     {App: "x", Cores: 0, Nodes: 4, Cycles: 10},
		"no-span":       {App: "x", Cores: 4, Nodes: 4, Cycles: 0},
		"negative-span": {App: "x", Cores: 4, Nodes: 4, Cycles: -5},
	}
	for name, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBinaryRoundTripProperty round-trips randomly generated traces.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := sim.NewRNG(5)
	f := func(n uint8, seed uint64) bool {
		tr := &Trace{App: "p", Cores: 16, Nodes: 8, Cycles: 1000}
		cyc := int64(0)
		for i := 0; i < int(n); i++ {
			cyc += rng.Geometric(0.3)
			if cyc >= tr.Cycles {
				break
			}
			tr.Records = append(tr.Records, Record{
				Cycle:   cyc,
				SrcCore: int32(rng.Intn(16)),
				DstNode: int32(rng.Intn(8)),
				Class:   router.Class(rng.Intn(3)),
			})
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAppsCoverPaperBenchmarks(t *testing.T) {
	apps := Apps()
	if len(apps) != 13 {
		t.Fatalf("got %d apps, want the paper's 13", len(apps))
	}
	suites := map[string]int{}
	for _, a := range apps {
		suites[a.Suite]++
		if a.MeanRate <= 0 || a.MeanRate > 0.05 {
			t.Errorf("%s: rate %.4f outside the paper's low-rate regime", a.Name, a.MeanRate)
		}
	}
	for _, s := range []string{"SPEComp", "PARSEC", "SPLASH-2", "NAS", "SPECjbb"} {
		if suites[s] == 0 {
			t.Errorf("suite %s missing", s)
		}
	}
	if _, err := AppByName("fma3d"); err != nil {
		t.Error(err)
	}
	if _, err := AppByName("doom"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	app, _ := AppByName("fft")
	a := app.Synthesize(256, 64, 5000, 42)
	b := app.Synthesize(256, 64, 5000, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different traces")
	}
	c := app.Synthesize(256, 64, 5000, 43)
	if reflect.DeepEqual(a.Records, c.Records) {
		t.Fatal("different seeds gave identical traces")
	}
}

func TestSynthesizeValidAndOnRate(t *testing.T) {
	for _, app := range Apps() {
		tr := app.Synthesize(256, 64, 20000, 1)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		got := tr.Rate()
		if math.Abs(got-app.MeanRate)/app.MeanRate > 0.35 {
			t.Errorf("%s: trace rate %.5f, model mean %.5f", app.Name, got, app.MeanRate)
		}
	}
}

// TestSynthesizeBurstiness verifies that a high-burstiness app's traffic is
// much spikier than a smooth one's: compare the variance-to-mean ratio of
// per-cycle injection counts.
func TestSynthesizeBurstiness(t *testing.T) {
	vmr := func(name string) float64 {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := app.Synthesize(256, 64, 20000, 7)
		perCycle := make([]float64, tr.Cycles)
		for _, r := range tr.Records {
			perCycle[r.Cycle]++
		}
		var mean float64
		for _, c := range perCycle {
			mean += c
		}
		mean /= float64(len(perCycle))
		var v float64
		for _, c := range perCycle {
			v += (c - mean) * (c - mean)
		}
		v /= float64(len(perCycle))
		return v / mean
	}
	smooth := vmr("blackscholes") // burstiness 2, sync 0.1
	bursty := vmr("nas-cg")       // burstiness 8, sync 0.9
	if bursty < 3*smooth {
		t.Fatalf("nas-cg VMR %.2f not clearly burstier than blackscholes %.2f", bursty, smooth)
	}
}

func TestReplayShapeMismatch(t *testing.T) {
	tr := sampleTrace() // 8 cores / 4 nodes
	cfg := core.DefaultConfig(core.TokenSlot)
	net, err := core.NewNetwork(cfg, sim.ShortWindow())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(tr, net, 100); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestReplayDeliversEverything(t *testing.T) {
	app, _ := AppByName("swaptions")
	cfg := core.DefaultConfig(core.DHSSetaside)
	tr := app.Synthesize(cfg.Cores(), cfg.Nodes, 3000, 3)
	net, err := core.NewNetwork(cfg, sim.Window{Warmup: 0, Measure: 3000, Drain: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(tr, net, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d packets undelivered after drain", res.Unfinished)
	}
	if res.Delivered != int64(len(tr.Records)) {
		t.Fatalf("delivered %d of %d", res.Delivered, len(tr.Records))
	}
}
