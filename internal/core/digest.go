package core

import "photon/internal/router"

// Run digests give every simulation a single 64-bit fingerprint of its
// complete protocol history, so that "these two runs did the same thing"
// becomes a one-word comparison instead of a diff of statistics. The
// digest is the determinism oracle behind internal/check and cmd/verify:
// repeated runs of an identical (Config, traffic) pair must produce
// identical digests, and any protocol change — an extra drop, a token
// captured one cycle later, a packet delivered out of order — perturbs it
// with overwhelming probability.
//
// Construction: every canonical protocol event (inject, enqueue, launch,
// accept, drop, reinject, ack, nack, deliver) is hashed individually with
// FNV-1a over its (cycle, type, packet id, src, dst) tuple, avalanched
// through a splitmix64-style finalizer, and folded into the digest with
// commutative combiners (a wrapping sum and an xor, plus the event count).
// The per-event hash carries the cycle number, so the digest is sensitive
// to *when* everything happened; the commutative fold makes it insensitive
// to the order events are observed *within* a cycle — intra-cycle emission
// order is an artefact of channel iteration in the sequential simulator,
// not of the modelled hardware, and must not leak into the fingerprint.

// FNV-1a 64-bit parameters (FNV is public domain; see Fowler/Noll/Vo).
// fnvPrimeN is fnvPrime64^N mod 2^64: folding a zero byte into FNV-1a is
// h = (h ^ 0) * prime, so a run of N zero bytes is one multiply by it.
const (
	fnvOffset64 uint64 = 14695981039346656037

	// Untyped, so the powers are computed in the compiler's wide
	// arithmetic and reduced mod 2^64 one step at a time.
	mask64     = 1<<64 - 1
	fnvPrime64 = 1099511628211
	fnvPrime2  = fnvPrime64 * fnvPrime64 & mask64
	fnvPrime3  = fnvPrime2 * fnvPrime64 & mask64
	fnvPrime4  = fnvPrime3 * fnvPrime64 & mask64
	fnvPrime5  = fnvPrime4 * fnvPrime64 & mask64
	fnvPrime6  = fnvPrime5 * fnvPrime64 & mask64
	fnvPrime7  = fnvPrime6 * fnvPrime64 & mask64
	fnvPrime8  = fnvPrime7 * fnvPrime64 & mask64
)

// fnvZeros[k] is the multiplier that folds k zero bytes.
var fnvZeros = [9]uint64{1, fnvPrime64, fnvPrime2, fnvPrime3, fnvPrime4, fnvPrime5, fnvPrime6, fnvPrime7, fnvPrime8}

// mix64 is the splitmix64 output finalizer: a bijection on uint64 with
// strong avalanche, used to spread per-event FNV hashes before the
// commutative fold (raw FNV of similar tuples differs in few bits, which
// a plain sum would partially cancel).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnvFold folds the low width bytes of w into an FNV-1a state,
// little-endian byte-wise so the hash is platform-independent; w must fit
// in width bytes. The words of an event tuple are small numbers, so only
// the bytes up to the highest set one are folded one by one and the zero
// bytes above them collapse into a single multiply — the same function as
// the plain byte loop (TestEventHashMatchesFNV1a) at a quarter of the
// serially dependent multiplies.
func fnvFold(h, w uint64, width int) uint64 {
	for ; w != 0; w >>= 8 {
		h = (h ^ w&0xFF) * fnvPrime64
		width--
	}
	return h * fnvZeros[width]
}

// cyclePrefix is the FNV-1a state after the tuple's leading cycle word.
// It is the same for every event of a cycle; runDigest caches it.
func cyclePrefix(cycle int64) uint64 {
	return fnvFold(fnvOffset64, uint64(cycle), 8)
}

// eventHash fingerprints one protocol event: FNV-1a over the
// little-endian words (cycle, type, packet id, src<<32|dst), finalised by
// mix64. prefix is cyclePrefix(cycle). An event type is a single byte, so
// its word folds in one step.
func eventHash(prefix uint64, t EventType, p *router.Packet) uint64 {
	h := (prefix ^ uint64(t)) * fnvPrime8
	h = fnvFold(h, p.ID, 8)
	h = fnvFold(h, uint64(uint32(p.Dst)), 4)
	h = fnvFold(h, uint64(uint32(p.Src)), 4)
	return mix64(h)
}

// metaHash fingerprints one packet-less protocol event (fault-injection
// kinds); aux takes the slot a packet's identity words would occupy, and
// an all-ones sentinel word stands in for src/dst to keep the shape
// distinct.
func metaHash(prefix uint64, t EventType, aux uint64) uint64 {
	h := (prefix ^ uint64(t)) * fnvPrime8
	h = fnvFold(h, aux, 8)
	h = fnvFold(h, ^uint64(0), 8)
	return mix64(h)
}

// runDigest accumulates event hashes with commutative combiners.
type runDigest struct {
	sum   uint64 // wrapping sum of event hashes
	xor   uint64 // xor of event hashes
	count uint64 // number of events observed

	// prefix is cyclePrefix(at-1): the cycle word is folded once per cycle
	// rather than once per event. Keyed on the cycle itself, so whichever
	// way the clock moved (Step, idle skip-ahead) the next event rebuilds
	// it; at == 0 means none is cached yet, so the zero value is usable.
	at     int64
	prefix uint64
}

// prefixAt returns cyclePrefix(cycle) through the one-entry cache.
func (d *runDigest) prefixAt(cycle int64) uint64 {
	if d.at != cycle+1 {
		d.at, d.prefix = cycle+1, cyclePrefix(cycle)
	}
	return d.prefix
}

// observe folds one event hash into the digest.
func (d *runDigest) observe(h uint64) {
	d.sum += h
	d.xor ^= h
	d.count++
}

// value finalises the digest into the run fingerprint.
func (d *runDigest) value() uint64 {
	return mix64(d.sum ^ mix64(d.xor^mix64(d.count)))
}
