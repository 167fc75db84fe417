package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/traffic"
)

// This file holds the point-list builders the catalog's grid-backed rows
// name: each builds a deterministically ordered []Point from the options
// alone, so the sweep farm (internal/farm) can spread a grid across
// workers and, on resume, rebuild exactly the same grid from its name.
// A row's driver runs the same list its Grid returns (catalog.go).

// overLoads is one series of a latency-vs-load grid: p at every load.
func overLoads(p Point, loads []float64) []Point {
	points := make([]Point, len(loads))
	for i, rate := range loads {
		points[i] = p
		points[i].Rate = rate
	}
	return points
}

// creditPoints is the credit-count sensitivity grid of the given schemes
// under UR, one 4/8/16/32-credit series each: Figure 2(b) for Token Slot,
// Figures 11(a)-(e) for the handshake family.
func creditPoints(opts Options, schemes ...core.Scheme) []Point {
	var points []Point
	for _, s := range schemes {
		for _, credits := range []int{4, 8, 16, 32} {
			points = append(points, overLoads(Point{
				Scheme: s, Label: fmt.Sprintf("Credit_%d", credits), Pattern: traffic.UniformRandom{},
				Mod: func(c *core.Config) { c.BufferDepth = credits },
			}, PaperLoads("UR", opts.Quick))...)
		}
	}
	return points
}

// handshakeFamily is everything the registry holds except the credit
// baselines: the Figure 11(a)-(e) panels.
func handshakeFamily() []core.Scheme {
	var schemes []core.Scheme
	for _, s := range core.Schemes() {
		if !s.CreditBased() {
			schemes = append(schemes, s)
		}
	}
	return schemes
}

// groupPoints is the Figure 8/9 grid: one series per scheme of the group,
// labelled with the paper's figure names in registry (presentation)
// order, over the pattern's paper load axis.
func groupPoints(group []core.Scheme, pat traffic.Pattern, opts Options) []Point {
	var points []Point
	for _, s := range group {
		points = append(points, overLoads(Point{Scheme: s, Label: s.PaperName(), Pattern: pat}, PaperLoads(pat.Name(), opts.Quick))...)
	}
	return points
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
