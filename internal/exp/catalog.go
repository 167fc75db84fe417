package exp

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"photon/internal/core"
	"photon/internal/phys"
	"photon/internal/router"
	"photon/internal/stats"
	"photon/internal/trace"
	"photon/internal/traffic"
	"photon/internal/viz"
)

// This file is the study catalog: the one list of which experiments
// exist. Every table, figure and extension study is one Study row;
// cmd/sweep (-list, -study), the farm's named grids (FigurePoints), the
// files under results/ and DESIGN.md's per-experiment index all read it
// (the root package's TestCatalogIsTheInventory holds the last two to
// it). Adding a study is adding a row to buildCatalog. A row that reads
// simulated points names them (Points) and renders from their results
// (Render), so RunStudies can run the union of several rows' points with
// each distinct point once.

// Study is one catalog row.
type Study struct {
	// Name selects the row (sweep -study); for a grid row it is also the
	// farm grid name, so manifest keys depend on it.
	Name string
	// ID is the row's id in DESIGN.md's per-experiment index and Paper the
	// artefact it reproduces; "" when there is none.
	ID, Paper string
	// Params names the parameter flags (Params.Register) the row reads —
	// passing any other is a usage error — and Load is what -load defaults
	// to for a row that reads it.
	Params []string
	Load   float64
	// Results is the file under results/ the row regenerates at full
	// fidelity, "" for none.
	Results string
	// Points lists the simulation points the row reads, in a deterministic
	// order; nil for a row that runs no Point.
	Points func(Options, Params) ([]Point, error)
	// Render writes the row. A row with Points reads their results from
	// res and simulates nothing of its own; any other row runs its own
	// simulations here.
	Render func(out *Output, opts Options, p Params, res Results) error
}

// params is p with the row's -load default filled in.
func (s Study) params(p Params) Params {
	if p.Load == 0 {
		p.Load = s.Load
	}
	return p
}

// grid reports whether the row is a farm grid: it has Points and reads no
// -workload, the one parameter without a default.
func (s Study) grid() bool {
	return s.Points != nil && !slices.Contains(s.Params, "workload")
}

// RunStudies renders rows in order after one Simulate of the union of
// their points, each row with its own -load default.
func RunStudies(out *Output, opts Options, p Params, rows ...Study) error {
	var points []Point
	for _, s := range rows {
		if s.Points == nil {
			continue
		}
		ps, err := s.Points(opts, s.params(p))
		if err != nil {
			return err
		}
		points = append(points, ps...)
	}
	res, err := Simulate(points, opts)
	for _, s := range rows {
		if err == nil {
			err = s.Render(out, opts, s.params(p), res)
		}
	}
	return err
}

// Params are the values of the parameter flags, one shared set across
// rows; a row sees only the ones it declares.
type Params struct {
	Pattern  string
	Load     float64
	Workload string
	Out      string
	Cycles   int64
}

// Register declares the parameter flags on fs: the whole set Study.Params
// may name.
func (p *Params) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.Pattern, "pattern", "UR", "destination pattern: UR, BC, TOR, TP, NBR")
	fs.Float64Var(&p.Load, "load", 0, "operating point in packets/cycle/core (0 = the row's own default, see -list)")
	fs.StringVar(&p.Workload, "workload", "", "workload preset (bursty, flash, diurnal) or raw workload spec; for trace-gen, the application to synthesise")
	fs.StringVar(&p.Out, "o", "trace.phtr", "binary trace file: written by trace-gen, read by trace-dump")
	fs.Int64Var(&p.Cycles, "cycles", 30_000, "synthesised trace span in cycles")
}

// Output is where a study renders: tables as aligned text or CSV, the
// latency-vs-load ones optionally followed by an ASCII chart.
type Output struct {
	W         io.Writer
	CSV, Plot bool
}

// Table writes t in the selected format.
func (o *Output) Table(t *stats.Table) error {
	if o.CSV {
		return t.WriteCSV(o.W)
	}
	return t.WriteText(o.W)
}

// Tables writes each table followed by a blank line.
func (o *Output) Tables(tables ...*stats.Table) error {
	for _, t := range tables {
		if err := o.Table(t); err != nil {
			return err
		}
		o.Printf("\n")
	}
	return nil
}

// Printf writes the prose around the tables.
func (o *Output) Printf(format string, a ...any) { fmt.Fprintf(o.W, format, a...) }

var catalog = buildCatalog()

// Studies returns the catalog in presentation order.
func Studies() []Study { return catalog }

// StudyByName looks a row up; the error lists the known names.
func StudyByName(name string) (Study, error) {
	var known []string
	for _, s := range Studies() {
		if s.Name == name {
			return s, nil
		}
		known = append(known, s.Name)
	}
	return Study{}, fmt.Errorf("exp: unknown study %q (known: %s)", name, strings.Join(known, ", "))
}

// CatalogTable renders the catalog one line per row: what sweep -list
// prints and what DESIGN.md's per-experiment index repeats.
func CatalogTable() *stats.Table {
	t := stats.NewTable("Study catalog (sweep -study <name>)", "study", "id", "paper artefact", "parameters", "results file")
	for _, s := range Studies() {
		params, results := "", s.Results
		for _, p := range s.Params {
			if p == "load" {
				p = fmt.Sprintf("load=%g", s.Load)
			}
			params += " -" + p
		}
		if results != "" {
			results = "results/" + results
		}
		cells := []any{s.Name, s.ID, s.Paper, strings.TrimSpace(params), results}
		for i, c := range cells {
			if c == "" {
				cells[i] = "-"
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// figuresGrid names the union of the paper-figure grids in figuresRows —
// the full regeneration workload of the paper's synthetic-traffic
// evaluation. Its point order is pinned (manifest fingerprints depend on
// it), so it is a list, not a property of the rows.
const figuresGrid = "figures"

var figuresRows = []string{"fig2b", "fig8:UR", "fig8:BC", "fig8:TOR", "fig9:UR", "fig9:BC", "fig9:TOR", "fig11", "fig11f"}

// GridNames lists every name FigurePoints accepts: the grid rows in
// catalog order, then their union.
func GridNames() []string {
	var names []string
	for _, s := range Studies() {
		if s.grid() {
			names = append(names, s.Name)
		}
	}
	return append(names, figuresGrid)
}

// FigurePoints builds the named grid from its catalog row's Points, with
// the row's default parameters. The point order is deterministic — it is
// the grid's identity: the farm keys its manifest entries by index and
// Point.String, and a resumed run re-derives point i by rebuilding the
// same grid from the same name and options.
func FigurePoints(name string, opts Options) ([]Point, error) {
	rows := []string{name}
	if name == figuresGrid {
		rows = figuresRows
	}
	var points []Point
	for _, row := range rows {
		s, err := StudyByName(row)
		if err != nil || !s.grid() {
			return nil, fmt.Errorf("exp: unknown grid %q (known: %s)", name, strings.Join(GridNames(), ", "))
		}
		ps, err := s.Points(opts, s.params(Params{}))
		if err != nil {
			return nil, err
		}
		points = append(points, ps...)
	}
	return points, nil
}

// pointStudy completes a row with Points: Render looks the row's points
// up in res and renders them with their runs.
func pointStudy(s Study, render func(out *Output, p Params, points []Point, runs []WorkloadSLO) error) Study {
	s.Render = func(out *Output, opts Options, p Params, res Results) error {
		points, err := s.Points(opts, p)
		var runs []WorkloadSLO
		if err == nil {
			runs, err = res.of(points)
		}
		if err != nil {
			return err
		}
		return render(out, p, points, runs)
	}
	return s
}

// curveStudy completes a latency-vs-load row: one panel (table and, with
// Plot, chart) per run of curves sharing a title.
func curveStudy(s Study, title func(Curve) string) Study {
	return pointStudy(s, func(out *Output, _ Params, points []Point, runs []WorkloadSLO) (err error) {
		curves := curvesOf(points, runs)
		for len(curves) > 0 && err == nil {
			n, panel := 1, title(curves[0])
			for n < len(curves) && title(curves[n]) == panel {
				n++
			}
			err = out.Tables(curvesToTable(panel, curves[:n]))
			if out.Plot && err == nil {
				// Latency clipped at 100 cycles, like the paper's axes.
				chart := &viz.Chart{Title: panel, XLabel: "packets/cycle/core", YLabel: "latency (cycles)", YCap: 100}
				for _, c := range curves[:n] {
					chart.Add(c.Label, c.Loads, c.Latency)
				}
				err = chart.Render(out.W)
				out.Printf("\n")
			}
			curves = curves[n:]
		}
		return err
	})
}

// tableStudy completes a row that runs no Point and whose whole rendering
// is one table and the fixed text after it.
func tableStudy(s Study, after string, table func(Options, Params) (*stats.Table, error)) Study {
	s.Render = func(out *Output, opts Options, p Params, _ Results) error {
		t, err := table(opts, p)
		if err != nil {
			return err
		}
		err = out.Table(t)
		out.Printf("%s", after)
		return err
	}
	return s
}

// fig12Study is a Figure 12 row: panel (a), panel (b) or both, from the
// same points.
func fig12Study(name, id, paper, results string, a, b bool) Study {
	return pointStudy(Study{
		Name: name, ID: id, Paper: paper, Results: results, Params: []string{"load"}, Load: 0.11,
		Points: func(_ Options, p Params) ([]Point, error) { return fig12Points(p.Load), nil },
	}, func(out *Output, p Params, _ []Point, runs []WorkloadSLO) error {
		ta, tb, err := Fig12(p.Load, runs)
		if a && err == nil {
			err = out.Tables(ta)
		}
		if b && err == nil {
			err = out.Table(tb)
		}
		return err
	})
}

func buildCatalog() []Study {
	fixed := func(title string) func(Curve) string { return func(Curve) string { return title } }
	rows := []Study{curveStudy(Study{
		Name: "fig2b", ID: "E1", Paper: "Fig. 2(b)", Results: "fig2b.txt",
		Points: func(o Options, _ Params) ([]Point, error) { return creditPoints(o, core.TokenSlot), nil },
	}, fixed("Figure 2(b): Token Slot latency vs load, UR, by credit count"))}

	for _, fig := range []struct {
		name, id, paper, title string
		group                  []core.Scheme
	}{
		{"fig8", "E2", "Fig. 8", "Figure 8 (%s): Global Handshake vs Token Channel, latency (cycles) vs load", core.GlobalGroup()},
		{"fig9", "E3", "Fig. 9", "Figure 9 (%s): Distributed Handshake vs Token Slot, latency (cycles) vs load", core.DistributedGroup()},
	} {
		for i, pat := range traffic.PaperPatterns() {
			rows = append(rows, curveStudy(Study{
				Name: fig.name + ":" + pat.Name(), ID: fig.id,
				Paper:   fmt.Sprintf("%s(%c)", fig.paper, 'a'+i),
				Results: strings.ToLower(fig.name + "_" + pat.Name() + ".txt"),
				Points:  func(o Options, _ Params) ([]Point, error) { return groupPoints(fig.group, pat, o), nil },
			}, fixed(fmt.Sprintf(fig.title, pat.Name()))))
		}
	}

	return append(rows,
		Study{Name: "fig10", ID: "E4", Paper: "Fig. 10(a,b)", Results: "fig10.txt", Render: runFig10},
		Study{Name: "ipc", ID: "E5", Paper: "§V-B IPC", Results: "ipc.txt", Render: runIPC},
		curveStudy(Study{
			Name: "fig11", ID: "E6", Paper: "Fig. 11(a-e)", Results: "fig11.txt",
			Points: func(o Options, _ Params) ([]Point, error) { return creditPoints(o, handshakeFamily()...), nil },
		}, func(c Curve) string {
			return fmt.Sprintf("Figure 11 (%s): latency vs load by credit count, UR", c.Scheme.PaperName())
		}),
		pointStudy(Study{Name: "fig11f", ID: "E7", Paper: "Fig. 11(f)", Results: "fig11f.txt",
			Points: func(Options, Params) ([]Point, error) { return fig11fPoints(), nil }},
			func(out *Output, _ Params, _ []Point, runs []WorkloadSLO) error { return out.Tables(Fig11f(runs)) }),
		fig12Study("fig12", "E8+E9", "Fig. 12", "fig12.txt", true, true),
		fig12Study("fig12a", "E8", "Fig. 12(a)", "", true, false),
		fig12Study("fig12b", "E9", "Fig. 12(b)", "", false, true),
		tableStudy(Study{Name: "table1", ID: "E10", Paper: "Table I", Results: "table1.txt"}, "",
			func(Options, Params) (*stats.Table, error) { return Table1(), nil }),
		pointStudy(Study{Name: "claims", ID: "E11", Paper: "§V-B claims", Results: "claims.txt",
			Points: func(o Options, _ Params) ([]Point, error) { return claimsPoints(o), nil }}, renderClaims),
		Study{Name: "fairness", ID: "X1", Paper: "§III-D (fairness)", Results: "fairness.txt", Render: runFairness},
		tableStudy(Study{Name: "swmr", ID: "X2", Paper: "§II-B (SWMR)", Results: "swmr.txt"},
			"\nReservation pays a notification round trip before every packet and\n"+
				"serialises per node; handshake sends immediately and absorbs receiver\n"+
				"contention with NACK/retransmit — the paper's argument, on SWMR.\n",
			func(o Options, _ Params) (*stats.Table, error) { return SWMRStudy(o) }),
		pointStudy(Study{Name: "scaling", ID: "X3", Paper: "large-scale argument", Results: "scaling.txt",
			Points: func(Options, Params) ([]Point, error) { return scalingPoints(), nil }},
			func(out *Output, _ Params, _ []Point, runs []WorkloadSLO) error { return out.Table(ScalingStudy(runs)) }),
		tableStudy(Study{Name: "multiflit", ID: "X4", Paper: "fn. 6 (multi-flit)", Results: "multiflit.txt",
			Params: []string{"load"}, Load: 0.05}, "",
			func(o Options, p Params) (*stats.Table, error) { return MultiFlitStudy(p.Load, o) }),
		tableStudy(Study{Name: "breakdown", ID: "X6", Paper: "§III (mechanism)", Params: []string{"load"}, Load: 0.05}, "\n",
			func(o Options, p Params) (*stats.Table, error) { return ExactBreakdown(p.Load, o) }),
		pointStudy(Study{Name: "workload", ID: "X7", Params: []string{"workload", "pattern"}, Points: workloadRowPoints}, renderWorkloads),
		pointStudy(Study{Name: "slo", ID: "X7",
			Points: func(Options, Params) ([]Point, error) { return workloadGridPoints(), nil }}, renderWorkloads),
		Study{Name: "wavelengths", Render: runWavelengths},
		Study{Name: "analyze", Params: []string{"cycles"}, Render: runAnalyze},
		Study{Name: "trace-gen", Params: []string{"workload", "o", "cycles"}, Render: runTraceGen},
		Study{Name: "trace-dump", Params: []string{"o"}, Render: runTraceDump},
	)
}

// renderClaims prints, per pattern, the throughput-improvement and
// sub-1%-drop-rate claims: each group's best handshake saturation
// throughput against its credit baseline, and the worst drop,
// retransmission and circulation rates over every handshake point.
func renderClaims(out *Output, _ Params, points []Point, runs []WorkloadSLO) error {
	curves := curvesOf(points, runs)
	n := len(curves) / len(traffic.PaperPatterns())
	for i, pat := range traffic.PaperPatterns() {
		var sat [2][2]float64 // [global, distributed][baseline, best handshake]
		var gain [2]float64
		var worst [3]float64 // drop, retransmit, circulation
		for _, c := range curves[i*n : (i+1)*n] {
			g, s := 1, c.SaturationThroughput()
			if c.Scheme.Global() {
				g = 0
			}
			if c.Scheme.CreditBased() {
				sat[g][0] = s
				continue
			}
			sat[g][1] = max(sat[g][1], s)
			for _, r := range c.Results {
				worst = [3]float64{max(worst[0], r.DropRate), max(worst[1], r.RetransmitRate), max(worst[2], r.CirculationRate)}
			}
		}
		for g := range sat {
			if sat[g][0] > 0 {
				gain[g] = 100 * (sat[g][1] - sat[g][0]) / sat[g][0]
			}
		}
		out.Printf("%s: global group: Token Channel %.4f -> best GHS %.4f (%+.0f%%); ",
			pat.Name(), sat[0][0], sat[0][1], gain[0])
		out.Printf("distributed group: Token Slot %.4f -> best DHS %.4f (%+.0f%%)\n",
			sat[1][0], sat[1][1], gain[1])
		out.Printf("%s: worst handshake rates: drop %.4f%%, retransmit %.4f%%, circulation %.4f%%\n",
			pat.Name(), 100*worst[0], 100*worst[1], 100*worst[2])
	}
	return nil
}

func runFig10(out *Output, opts Options, _ Params, _ Results) error {
	global, distributed, ta, tb, err := Fig10(opts)
	if err != nil {
		return err
	}
	if err := out.Tables(ta, tb); err != nil {
		return err
	}
	line := func(label string, rows []AppResult, baseline, scheme core.Scheme) {
		avg, max := LatencyReduction(rows, baseline, scheme)
		out.Printf("%s avg latency reduction %.0f%%, max %.0f%%\n", label, avg, max)
	}
	line("GHS w/ Setaside vs Token Channel:", global, core.TokenChannel, core.GHSSetaside)
	line("GHS (basic)     vs Token Channel:", global, core.TokenChannel, core.GHS)
	line("DHS w/ Setaside vs Token Slot:   ", distributed, core.TokenSlot, core.DHSSetaside)
	line("DHS w/ Circul.  vs Token Slot:   ", distributed, core.TokenSlot, core.DHSCirculation)
	return nil
}

func runIPC(out *Output, opts Options, _ Params, _ Results) error {
	for i, pair := range [][2]core.Scheme{{core.TokenChannel, core.GHSSetaside}, {core.TokenSlot, core.DHSSetaside}} {
		rows, t, err := IPCStudy(pair[0], pair[1], opts)
		if err != nil {
			return err
		}
		if i > 0 {
			out.Printf("\n")
		}
		if err := out.Table(t); err != nil {
			return err
		}
		out.Printf("mean IPC gain: %+.1f%%\n", MeanIPCGain(rows))
	}
	return nil
}

// runFairness targets the non-blocking handshake variants (setaside and
// circulation) — the schemes whose senders keep injecting past an
// un-ACKed packet and so can starve far nodes.
func runFairness(out *Output, opts Options, _ Params, _ Results) error {
	for _, s := range core.Schemes() {
		if s.CreditBased() || s.SendPolicy() == router.HoldHead {
			continue
		}
		t, err := FairnessStudy(s, opts)
		if err != nil {
			return err
		}
		if err := out.Tables(t); err != nil {
			return err
		}
	}
	return nil
}

// runWavelengths prints each scheme's DWDM wavelength allocation plan.
func runWavelengths(out *Output, _ Options, _ Params, _ Results) error {
	shape := phys.DefaultShape()
	for _, hw := range phys.StandardSchemes() {
		plan, err := phys.PlanWavelengths(shape, hw)
		if err == nil {
			err = plan.Validate()
		}
		if err != nil {
			return err
		}
		c := plan.CountByUse()
		out.Printf("%-12s %4d waveguides  (data %d, token %d, handshake %d wavelengths)\n",
			hw.Name, plan.Waveguides, c[phys.UseData], c[phys.UseToken], c[phys.UseHandshake])
	}
	return nil
}

// synthesize builds an application's trace on the default network shape;
// an invalid trace (a span of no cycles) is an error.
func synthesize(app trace.AppModel, opts Options, p Params) (*trace.Trace, error) {
	cfg := core.DefaultConfig(core.DHSSetaside)
	tr := app.Synthesize(cfg.Cores(), cfg.Nodes, p.Cycles, opts.Seed)
	return tr, tr.Validate()
}

// runAnalyze prints the workload character of all 13 benchmark traces.
func runAnalyze(out *Output, opts Options, p Params, _ Results) error {
	var analyses []trace.Analysis
	for _, app := range trace.Apps() {
		tr, err := synthesize(app, opts, p)
		if err != nil {
			return err
		}
		analyses = append(analyses, trace.Analyze(tr))
	}
	return out.Table(trace.AnalysisTable(analyses))
}

// runTraceGen synthesises one application's trace into a binary file.
func runTraceGen(out *Output, opts Options, p Params, _ Results) error {
	app, err := trace.AppByName(p.Workload)
	if err != nil {
		return err
	}
	tr, err := synthesize(app, opts, p)
	if err != nil {
		return err
	}
	f, err := os.Create(p.Out)
	if err != nil {
		return err
	}
	err = tr.WriteBinary(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("exp: writing trace %s: %w", p.Out, err)
	}
	out.Printf("wrote %s: %d records over %d cycles (%.5f pkt/cycle/core)\n",
		p.Out, len(tr.Records), tr.Cycles, tr.Rate())
	return nil
}

// runTraceDump prints the header and rate of a binary trace file.
func runTraceDump(out *Output, _ Options, p Params, _ Results) error {
	f, err := os.Open(p.Out)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		return fmt.Errorf("exp: reading trace %s: %w", p.Out, err)
	}
	out.Printf("app=%s cores=%d nodes=%d cycles=%d records=%d rate=%.5f\n",
		tr.App, tr.Cores, tr.Nodes, tr.Cycles, len(tr.Records), tr.Rate())
	return nil
}
