package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/traffic"
)

// pointKey is what makes two points one simulation under one Options:
// the configuration they resolve to (Mod applied), the pattern, and the
// rate and workload spec. Label is presentation only.
type pointKey struct {
	cfg      core.Config
	pattern  traffic.Pattern
	rate     float64
	workload string
}

func keyOf(p Point, opts Options) pointKey {
	return pointKey{pointConfig(p, opts), p.Pattern, p.Rate, p.Workload}
}

// simulatePoint is Simulate's runner: a workload point carries its
// per-phase SLO report, and its Result is RunPoint's bit for bit. Tests
// swap it to count runs.
var simulatePoint = func(p Point, opts Options) (WorkloadSLO, error) {
	if p.Workload != "" {
		return RunWorkloadSLO(p, opts)
	}
	res, err := RunPoint(p, opts)
	return WorkloadSLO{Scheme: p.Scheme, Result: res}, err
}

// Results holds what Simulate ran, found again by point.
type Results struct {
	opts  Options
	index map[pointKey]int
	runs  []WorkloadSLO
}

// Simulate runs the union of points on the shared pool, each distinct key
// once. The dedupe lives here only: RunPoint and RunPoints run whatever
// they are given.
func Simulate(points []Point, opts Options) (Results, error) {
	res := Results{opts: opts, index: map[pointKey]int{}}
	var distinct []Point
	for _, p := range points {
		k := keyOf(p, opts)
		if _, seen := res.index[k]; !seen {
			res.index[k] = len(distinct)
			distinct = append(distinct, p)
		}
	}
	var err error
	res.runs, err = runEach(distinct, opts, simulatePoint)
	return res, err
}

// of returns the runs of points, in order; a point Simulate was not given
// is an error.
func (r Results) of(points []Point) ([]WorkloadSLO, error) {
	runs := make([]WorkloadSLO, len(points))
	for i, p := range points {
		j, ok := r.index[keyOf(p, r.opts)]
		if !ok {
			return nil, fmt.Errorf("exp: point %s was not simulated", p)
		}
		runs[i] = r.runs[j]
	}
	return runs, nil
}

// curvesOf folds a series-major grid (overLoads runs) and its runs into
// one Curve per run of points sharing a scheme and label.
func curvesOf(points []Point, runs []WorkloadSLO) []Curve {
	var curves []Curve
	for i, p := range points {
		if i == 0 || p.Scheme != points[i-1].Scheme || p.Label != points[i-1].Label {
			curves = append(curves, Curve{Label: p.Label, Scheme: p.Scheme})
		}
		c, res := &curves[len(curves)-1], runs[i].Result
		c.Loads = append(c.Loads, p.Rate)
		c.Latency = append(c.Latency, res.AvgLatency)
		c.Throughput = append(c.Throughput, res.Throughput)
		c.Results = append(c.Results, res)
	}
	return curves
}
