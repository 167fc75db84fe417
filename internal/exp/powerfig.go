package exp

import (
	"fmt"

	"photon/internal/core"
	"photon/internal/phys"
	"photon/internal/power"
	"photon/internal/stats"
	"photon/internal/traffic"
)

// Fig12 reproduces Figure 12: per-scheme power breakdown (a) and energy
// per packet (b). Activities come from a live simulation of every scheme
// under UR at the given load (the catalog's fig12 rows default to the
// paper's sensitivity operating point, 0.11 packets/cycle/core).
func Fig12(load float64, opts Options) (ta, tb *stats.Table, err error) {
	// Table order follows the paper: the global-arbitration group first,
	// then the distributed one.
	schemes := append(core.GlobalGroup(), core.DistributedGroup()...)
	var points []Point
	for _, s := range schemes {
		points = append(points, Point{Scheme: s, Pattern: traffic.UniformRandom{}, Rate: load})
	}
	results, err := RunPoints(points, opts)
	if err != nil {
		return nil, nil, err
	}

	model := power.DefaultModel()
	cores := float64(model.Shape.Cores())
	ta = stats.NewTable(fmt.Sprintf("Figure 12(a): power breakdown (W) at UR %.2f pkt/cycle/core", load),
		"scheme", "Laser", "Heating", "E/O", "O/E", "Router", "Total")
	tb = stats.NewTable("Figure 12(b): energy per packet (nJ)", "scheme", "nJ/packet")
	for i, s := range schemes {
		r := results[i]
		act := power.Activity{
			PacketsPerCycle:         r.Throughput * cores,
			ReinjectionsPerCycle:    r.CirculationRate * r.Throughput * cores,
			RetransmissionsPerCycle: r.RetransmitRate * r.Throughput * cores,
		}
		bd, err := model.Evaluate(s.Hardware(), act)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: Fig12 %v: %w", s, err)
		}
		ta.AddRow(s.PaperName(),
			fmt.Sprintf("%.2f", bd.LaserW), fmt.Sprintf("%.2f", bd.HeatW),
			fmt.Sprintf("%.2f", bd.EOW), fmt.Sprintf("%.2f", bd.OEW),
			fmt.Sprintf("%.2f", bd.RouterW), fmt.Sprintf("%.2f", bd.TotalW()))
		tb.AddRow(s.PaperName(), fmt.Sprintf("%.2f", model.EnergyPerPacketNJ(bd, act)))
	}
	return ta, tb, nil
}

// Table1 reproduces Table I: the optical component budget per scheme.
func Table1() *stats.Table {
	shape := phys.DefaultShape()
	rows := phys.TableI(shape)
	t := stats.NewTable("Table I: component budgets for a 64-node network",
		"scheme", "Data WG", "Token WG", "Handshake WG", "Micro-rings", "vs Token Slot")
	base := rows[0]
	for _, r := range rows {
		t.AddRow(r.Scheme, r.DataWaveguides, r.TokenWaveguides, r.HandshakeWaveguides,
			fmt.Sprintf("%dK", r.MicroRings/1024),
			fmt.Sprintf("%+.1f%%", 100*r.Overhead(base)))
	}
	return t
}
