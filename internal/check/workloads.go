package check

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/traffic"
)

// workloadBattery is the workload differential battery: every preset
// workload (uniform-random destinations) is recorded once as a tape and
// verified under every scheme with the standard battery's per-point
// checks, which audit conservation at every schedule phase boundary, not
// just at the end of the run. It is the Workload-layer analogue of the
// standard battery, which owns the fixed-rate Bernoulli grids.
var workloadBattery = &Battery{
	name: "workloads", title: "workload differential battery",
	headers: []string{"scheme", "workload", "digest", "events", "injected", "delivered", "backlog", "phases", "determ", "tape", "conserve"},
	grid: func(quick bool) Grid {
		g := Grid{Schemes: core.Schemes(), Window: sim.Window{Warmup: 300, Measure: 1200, Drain: 1000}, DrainLimit: 20_000}
		for _, p := range traffic.PresetWorkloads() {
			g.Drives = append(g.Drives, Drive{Pattern: traffic.UniformRandom{}, Workload: p})
		}
		if !quick {
			g.Window, g.DrainLimit = sim.ShortWindow(), 60_000
		}
		return g
	},
	check: verifyTape,
	cross: func(r *run, points []Result) ([]Check, error) {
		return differentials(r, points, func(d Drive) string { return "workload differential " + d.Workload.Name }), nil
	},
	row: func(p Result) []any {
		return append([]any{p.Scheme.String(), p.Workload.Name, fmt.Sprintf("%016x", p.Digest),
			p.Events, p.Acct.Injected, p.Acct.Delivered, p.Acct.Backlog, p.Boundaries}, p.marks()...)
	},
}
