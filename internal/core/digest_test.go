package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"photon/internal/fault"
	"photon/internal/router"
	"photon/internal/sim"
)

// TestRunDigestOrderInsensitive: the fold must be commutative — the order
// events are observed within a cycle is a simulator artefact and must not
// leak into the fingerprint.
func TestRunDigestOrderInsensitive(t *testing.T) {
	hashes := make([]uint64, 64)
	x := uint64(0xDEADBEEF)
	for i := range hashes {
		x = mix64(x + uint64(i))
		hashes[i] = x
	}
	var fwd, rev, shuffled runDigest
	for _, h := range hashes {
		fwd.observe(h)
	}
	for i := len(hashes) - 1; i >= 0; i-- {
		rev.observe(hashes[i])
	}
	for i := 0; i < len(hashes); i += 2 {
		shuffled.observe(hashes[i])
	}
	for i := 1; i < len(hashes); i += 2 {
		shuffled.observe(hashes[i])
	}
	if fwd.value() != rev.value() || fwd.value() != shuffled.value() {
		t.Fatalf("digest depends on observation order: %016x / %016x / %016x",
			fwd.value(), rev.value(), shuffled.value())
	}
}

// TestRunDigestCountsMultiplicity: xor alone would cancel duplicated
// events; the sum/count components must keep A,A,B distinct from B.
func TestRunDigestCountsMultiplicity(t *testing.T) {
	a, b := mix64(1), mix64(2)
	var dup, single runDigest
	dup.observe(a)
	dup.observe(a)
	dup.observe(b)
	single.observe(b)
	if dup.value() == single.value() {
		t.Fatal("duplicated events cancelled out of the digest")
	}
}

// TestEventHashSensitivity: every field of the event tuple must perturb
// the hash.
func TestEventHashSensitivity(t *testing.T) {
	pkt := func(id uint64, src, dst int) *router.Packet {
		return router.NewPacket(id, src, dst, 0)
	}
	ref := eventHash(cyclePrefix(100), EvLaunch, pkt(7, 3, 9))
	variants := map[string]uint64{
		"cycle":  eventHash(cyclePrefix(101), EvLaunch, pkt(7, 3, 9)),
		"type":   eventHash(cyclePrefix(100), EvAccept, pkt(7, 3, 9)),
		"packet": eventHash(cyclePrefix(100), EvLaunch, pkt(8, 3, 9)),
		"src":    eventHash(cyclePrefix(100), EvLaunch, pkt(7, 4, 9)),
		"dst":    eventHash(cyclePrefix(100), EvLaunch, pkt(7, 3, 10)),
	}
	for field, h := range variants {
		if h == ref {
			t.Errorf("changing %s did not change the event hash", field)
		}
	}
}

// oracleHash is the construction digest.go documents, spelled with the
// standard library: FNV-1a over the tuple's four little-endian 64-bit
// words, finalised by mix64. eventHash and metaHash must equal it on
// every input — the zero-run collapse, the split src/dst word, the
// one-step type fold and the per-cycle prefix are strength reductions,
// not a new function.
func oracleHash(words [4]uint64) uint64 {
	var b [32]byte
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	h := fnv.New64a()
	h.Write(b[:])
	return mix64(h.Sum64())
}

func oracleEvent(cycle int64, t EventType, id uint64, src, dst int) uint64 {
	return oracleHash([4]uint64{uint64(cycle), uint64(t), id, uint64(uint32(src))<<32 | uint64(uint32(dst))})
}

func oracleMeta(cycle int64, t EventType, aux uint64) uint64 {
	return oracleHash([4]uint64{uint64(cycle), uint64(t), aux, ^uint64(0)})
}

// checkEventHash compares both hash forms against the oracle on one tuple
// (the packet id doubles as the aux word).
func checkEventHash(t *testing.T, cycle int64, typ EventType, id uint64, src, dst int) {
	t.Helper()
	p := &router.Packet{ID: id, Src: src, Dst: dst}
	if got, want := eventHash(cyclePrefix(cycle), typ, p), oracleEvent(cycle, typ, id, src, dst); got != want {
		t.Errorf("eventHash(cycle=%#x type=%d id=%#x src=%d dst=%d) = %016x, FNV-1a oracle %016x",
			cycle, typ, id, src, dst, got, want)
	}
	if got, want := metaHash(cyclePrefix(cycle), typ, id), oracleMeta(cycle, typ, id); got != want {
		t.Errorf("metaHash(cycle=%#x type=%d aux=%#x) = %016x, FNV-1a oracle %016x", cycle, typ, id, got, want)
	}
}

func TestEventHashMatchesFNV1a(t *testing.T) {
	// Edge words: zero, all ones, interior zero bytes, a zero low byte
	// under a set high one, values straddling 2^32.
	words := []uint64{0, 1, 0xFF, 0x100, 0x10000, 0xFF00FF, 0x0100000000000001, 0x00FF000000FF0000,
		1 << 32, 1<<32 - 1, 1<<32 + 1, 0xDEADBEEF00, 1 << 63, ^uint64(0), ^uint64(0) >> 8}
	nodes := []int{0, 1, 63, 255, 256, 4095, 1 << 16, 1<<31 - 1, -1, -2, -256, math.MinInt32}
	for _, cyc := range words {
		for _, id := range words {
			for i, src := range nodes {
				dst := nodes[(i+5)%len(nodes)]
				checkEventHash(t, int64(cyc), EventType(id%uint64(firstTapOnly)), id, src, dst)
			}
		}
	}
	for typ := EventType(0); typ < 256; typ++ {
		checkEventHash(t, 12345, typ, 77, 3, 9)
	}
	rng := sim.NewRNG(2013)
	for i := 0; i < 20000; i++ {
		// Random widths, so every significant-byte count of every word is hit.
		cyc := rng.Uint64() >> (rng.Uint64() % 64)
		id := rng.Uint64() >> (rng.Uint64() % 64)
		src := int(int32(rng.Uint64() >> (32 + rng.Uint64()%32)))
		dst := int(int32(rng.Uint64() >> (32 + rng.Uint64()%32)))
		checkEventHash(t, int64(cyc), EventType(rng.Uint64()%256), id, src, dst)
	}
}

func FuzzEventHash(f *testing.F) {
	f.Add(int64(0), byte(0), uint64(0), int64(0), int64(0))
	f.Add(int64(1<<32), byte(EvInject), uint64(1<<32), int64(63), int64(-1))
	f.Fuzz(func(t *testing.T, cycle int64, typ byte, id uint64, src, dst int64) {
		checkEventHash(t, cycle, EventType(typ), id, int(src), int(dst))
	})
}

// TestDigestPrefixFollowsClock: the cached per-cycle prefix must be
// rebuilt on every path that moves the clock — Step, RunCycles' stepped
// loop, and the idle skip-ahead, which jumps now without emitting. The
// run below injects right after each kind of advance (so the first event
// of a cycle lands on a stale cache if one survives) under fault
// injection too, which adds the packet-less metaHash events, and the
// network's digest must equal the byte-wise oracle folded over the
// observed event stream.
func TestDigestPrefixFollowsClock(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		cfg := DefaultConfig(DHSSetaside)
		if faulty {
			cfg.Fault = fault.Config{Enabled: true, Token: fault.ClassConfig{Rate: 0.01}, Data: fault.ClassConfig{Rate: 0.02}}
			cfg.Recovery.Enabled = true
		}
		n, err := NewNetwork(cfg, sim.Window{Measure: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		var want runDigest
		meta := 0
		n.SetTracer(CanonicalFunc(func(e Event) {
			if e.Packet == nil {
				meta++
				want.observe(oracleMeta(e.Cycle, e.Type, e.Aux))
				return
			}
			want.observe(oracleEvent(e.Cycle, e.Type, e.Packet.ID, e.Packet.Src, e.Packet.Dst))
		}))
		burst := func() {
			for c := 0; c < cfg.Cores(); c += 7 {
				n.Inject(c, (c+11)%cfg.Nodes, router.ClassData, 0)
			}
		}
		burst() // cycle 0, before any advance
		n.Step()
		burst() // right after Step
		n.RunCycles(3)
		burst()              // right after a stepped RunCycles (network busy)
		n.RunCycles(1 << 14) // drains, then skips ahead (fault-free) or steps
		if !faulty && n.Outstanding() != 0 {
			t.Fatal("network did not go idle; the skip-ahead leg is vacuous")
		}
		burst() // right after the jump
		n.RunCycles(1<<16 + 5)
		burst() // the cycle word has grown a byte since the last event
		n.RunCycles(1 << 10)
		if faulty && meta == 0 {
			t.Fatal("no packet-less event fired; the metaHash leg is vacuous")
		}
		if got := n.Digest(); got != want.value() || n.stats.digest.count != want.count {
			t.Errorf("faulty=%v: digest %016x over %d events, byte-wise oracle %016x over %d",
				faulty, got, n.stats.digest.count, want.value(), want.count)
		}
	}
}
