package exp

import (
	"fmt"
	"sort"
	"strings"

	"photon/internal/core"
	"photon/internal/traffic"
)

// This file is the declarative grid registry: every figure sweep is also
// available as a named, deterministically ordered []Point so that the
// sweep farm (internal/farm) can shard it across workers or subprocess
// shards and rebuild exactly the same grid from its name alone. The
// figure drivers in figures.go run these same builders, and
// TestFigureGridsMatchDrivers pins that driver and grid agree digest for
// digest, in order.

// sweepPoints expands (series x loads) into points in series-major order,
// exactly as Sweep submits them.
func sweepPoints(series []SweepSeries, pat traffic.Pattern, loads []float64) []Point {
	var points []Point
	for _, s := range series {
		for _, rate := range loads {
			points = append(points, Point{
				Scheme: s.Scheme, Label: s.Label, Pattern: pat, Rate: rate, Mod: s.Mod,
			})
		}
	}
	return points
}

// creditSeries is the 4/8/16/32 credit-count series of Figures 2(b) and
// 11(a)-(e).
func creditSeries(scheme core.Scheme) []SweepSeries {
	var series []SweepSeries
	for _, credits := range []int{4, 8, 16, 32} {
		credits := credits
		series = append(series, SweepSeries{
			Label:  fmt.Sprintf("Credit_%d", credits),
			Scheme: scheme,
			Mod:    func(c *core.Config) { c.BufferDepth = credits },
		})
	}
	return series
}

// The Figure 11(f) axes: setaside sizes per scheme, in bar order.
var (
	fig11fSchemes = []core.Scheme{core.GHSSetaside, core.DHSSetaside}
	fig11fSizes   = []int{1, 2, 4, 8, 16}
)

// fig11fPoints is the Figure 11(f) setaside-size grid (scheme-major), with
// labels so the farm's manifest keys distinguish the sizes.
func fig11fPoints() []Point {
	const rate = 0.11
	var points []Point
	for _, scheme := range fig11fSchemes {
		for _, s := range fig11fSizes {
			points = append(points, Point{
				Scheme:  scheme,
				Label:   fmt.Sprintf("Setaside_%d", s),
				Pattern: traffic.UniformRandom{},
				Rate:    rate,
				Mod:     func(c *core.Config) { c.SetasideSize = s },
			})
		}
	}
	return points
}

// FigureGridNames lists every named grid FigurePoints accepts, in
// presentation order. "figures" is the union of all of them — the full
// regeneration workload of the paper's synthetic-traffic evaluation.
func FigureGridNames() []string {
	names := []string{"fig2b"}
	for _, pat := range []string{"UR", "BC", "TOR"} {
		names = append(names, "fig8:"+pat)
	}
	for _, pat := range []string{"UR", "BC", "TOR"} {
		names = append(names, "fig9:"+pat)
	}
	names = append(names, "fig11", "fig11f", "figures")
	return names
}

// FigurePoints builds the named grid. The point order is deterministic —
// it is the grid's identity: the farm keys its manifest entries by
// (index, scheme, pattern, rate, label), and a subprocess shard re-derives
// point i by rebuilding the same grid from the same name and options.
func FigurePoints(name string, opts Options) ([]Point, error) {
	pat := func(p string) (traffic.Pattern, error) { return traffic.ByName(p) }
	switch {
	case name == "fig2b":
		return sweepPoints(creditSeries(core.TokenSlot), traffic.UniformRandom{}, PaperLoads("UR", opts.Quick)), nil
	case strings.HasPrefix(name, "fig8:"):
		p, err := pat(strings.TrimPrefix(name, "fig8:"))
		if err != nil {
			return nil, err
		}
		return sweepPoints(globalSeries(), p, PaperLoads(p.Name(), opts.Quick)), nil
	case strings.HasPrefix(name, "fig9:"):
		p, err := pat(strings.TrimPrefix(name, "fig9:"))
		if err != nil {
			return nil, err
		}
		return sweepPoints(distributedSeries(), p, PaperLoads(p.Name(), opts.Quick)), nil
	case name == "fig11":
		var points []Point
		for _, s := range core.Schemes() {
			if s.CreditBased() {
				continue
			}
			points = append(points, sweepPoints(creditSeries(s), traffic.UniformRandom{}, PaperLoads("UR", opts.Quick))...)
		}
		return points, nil
	case name == "fig11f":
		return fig11fPoints(), nil
	case name == "slo":
		// Workload grid, registered alongside the figure grids but not
		// folded into "figures": the union below is the paper's pinned
		// regeneration workload and must not change shape.
		return workloadGridPoints(), nil
	case name == "figures":
		var points []Point
		for _, n := range FigureGridNames() {
			if n == "figures" {
				continue
			}
			sub, err := FigurePoints(n, opts)
			if err != nil {
				return nil, err
			}
			points = append(points, sub...)
		}
		return points, nil
	default:
		known := append(FigureGridNames(), WorkloadGridNames()...)
		sort.Strings(known)
		return nil, fmt.Errorf("exp: unknown grid %q (known: %s)", name, strings.Join(known, ", "))
	}
}
