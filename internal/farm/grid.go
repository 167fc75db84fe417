package farm

import (
	"fmt"
	"hash/fnv"
	"io"

	"photon/internal/exp"
)

// Grid is a named, deterministically ordered sweep grid. The point order
// IS the grid's identity: manifest keys embed the index, the grid digest
// folds per-point digests in index order, and a resumed run re-derives
// point i by rebuilding the same grid from Name and Opts.
type Grid struct {
	Name   string
	Points []exp.Point
	Opts   exp.Options
}

// Build constructs a named grid: a grid-backed row of the study catalog
// (see exp.GridNames), or "figures", the full regeneration workload.
func Build(name string, opts exp.Options) (Grid, error) {
	points, err := exp.FigurePoints(name, opts)
	if err != nil {
		return Grid{}, err
	}
	return Grid{Name: name, Points: points, Opts: opts}, nil
}

// Key returns point i's manifest key: its index and identity
// (exp.Point.String: scheme, pattern, rate, then the series label and the
// canonical workload spec when set). Two points that differ only in their
// Mod closure — which cannot be serialised — are still distinguished by
// index, which is why resuming validates the whole-grid Fingerprint
// rather than trusting keys alone.
func (g Grid) Key(i int) string {
	return fmt.Sprintf("%04d:%s", i, g.Points[i])
}

// Fingerprint hashes the grid's identity — name, options that change
// simulated behaviour (seed, window, quick), and every point key — into
// the value a manifest must match before a resume is allowed.
func (g Grid) Fingerprint() uint64 {
	h := fnv.New64a()
	io.WriteString(h, g.Name)
	h.Write([]byte{0})
	fmt.Fprintf(h, "%d|%d|%d|%d|%t|%d", g.Opts.Seed,
		g.Opts.Window.Warmup, g.Opts.Window.Measure, g.Opts.Window.Drain,
		g.Opts.Quick, len(g.Points))
	h.Write([]byte{0})
	for i := range g.Points {
		io.WriteString(h, g.Key(i))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// MergeDigests folds per-point run digests, in grid index order, into
// one 64-bit grid digest (FNV-1a over the little-endian digest bytes).
// The fold is order-sensitive by design: a grid that silently swapped,
// dropped or duplicated a point must not collide with the honest run.
func MergeDigests(digests []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, d := range digests {
		for b := 0; b < 8; b++ {
			h ^= (d >> (8 * b)) & 0xFF
			h *= prime64
		}
	}
	return h
}
