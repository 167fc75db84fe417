package exp

import (
	"flag"
	"fmt"
	"io"
	"os"
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
// it). Adding a study is adding a row to buildCatalog.

// Study is one catalog row.
type Study struct {
	// Name selects the row (sweep -study); for a grid-backed row it is
	// also the farm grid name, so manifest keys depend on it.
	Name string
	// ID is the row's id in DESIGN.md's per-experiment index and Paper the
	// artefact it reproduces; "" when there is none. The "figures" grid is
	// the union of the grid-backed rows that have a Paper.
	ID, Paper string
	// Params names the parameter flags (Params.Register) the row reads —
	// passing any other is a usage error — and Load is what -load defaults
	// to for a row that reads it.
	Params []string
	Load   float64
	// Results is the file under results/ the row regenerates at full
	// fidelity, "" for none.
	Results string
	// Grid builds the row's point list; nil unless the row is a grid of
	// independent points, whose Run then simulates exactly this list.
	Grid func(Options) []Point
	// Run runs the study and renders it.
	Run func(out *Output, opts Options, p Params) error
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

var catalog []Study

// Filled by init, not a variable initialiser: rows call drivers (Claims,
// Figure) that look rows up again.
func init() { catalog = buildCatalog() }

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

// figuresGrid names the union of the paper-figure grids — the full
// regeneration workload of the paper's synthetic-traffic evaluation. Its
// point order is pinned (manifest fingerprints depend on it).
const figuresGrid = "figures"

// GridNames lists every name FigurePoints accepts: the grid-backed rows
// in catalog order, then their union.
func GridNames() []string {
	var names []string
	for _, s := range Studies() {
		if s.Grid != nil {
			names = append(names, s.Name)
		}
	}
	return append(names, figuresGrid)
}

// FigurePoints builds the named grid from its catalog row. The point
// order is deterministic — it is the grid's identity: the farm keys its
// manifest entries by index and Point.String, and a resumed run
// re-derives point i by rebuilding the same grid from the same name and
// options.
func FigurePoints(name string, opts Options) ([]Point, error) {
	var points []Point
	for _, s := range Studies() {
		switch {
		case s.Grid == nil:
		case s.Name == name:
			return s.Grid(opts), nil
		case name == figuresGrid && s.Paper != "":
			points = append(points, s.Grid(opts)...)
		}
	}
	if name != figuresGrid {
		return nil, fmt.Errorf("exp: unknown grid %q (known: %s)", name, strings.Join(GridNames(), ", "))
	}
	return points, nil
}

// curveStudy completes a grid-backed latency-vs-load row: Run simulates
// the row's grid as one RunPoints call and renders one panel (table and,
// with Plot, chart) per run of curves sharing a title.
func curveStudy(s Study, title func(Curve) string) Study {
	s.Run = func(out *Output, opts Options, _ Params) error {
		curves, err := runCurves(s.Grid(opts), opts)
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
	}
	return s
}

// tableStudy completes a row whose whole rendering is one table and the
// fixed text after it.
func tableStudy(s Study, after string, table func(Options, Params) (*stats.Table, error)) Study {
	s.Run = func(out *Output, opts Options, p Params) error {
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
// same live simulations.
func fig12Study(name, id, paper, results string, a, b bool) Study {
	return Study{
		Name: name, ID: id, Paper: paper, Results: results, Params: []string{"load"}, Load: 0.11,
		Run: func(out *Output, opts Options, p Params) error {
			ta, tb, err := Fig12(p.Load, opts)
			if a && err == nil {
				err = out.Tables(ta)
			}
			if b && err == nil {
				err = out.Table(tb)
			}
			return err
		},
	}
}

func buildCatalog() []Study {
	fixed := func(title string) func(Curve) string { return func(Curve) string { return title } }
	rows := []Study{curveStudy(Study{
		Name: "fig2b", ID: "E1", Paper: "Fig. 2(b)", Results: "fig2b.txt",
		Grid: func(o Options) []Point { return creditPoints(o, core.TokenSlot) },
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
				Grid:    func(o Options) []Point { return groupPoints(fig.group, pat, o) },
			}, fixed(fmt.Sprintf(fig.title, pat.Name()))))
		}
	}

	return append(rows,
		Study{Name: "fig10", ID: "E4", Paper: "Fig. 10(a,b)", Results: "fig10.txt", Run: runFig10},
		Study{Name: "ipc", ID: "E5", Paper: "§V-B IPC", Results: "ipc.txt", Run: runIPC},
		curveStudy(Study{
			Name: "fig11", ID: "E6", Paper: "Fig. 11(a-e)", Results: "fig11.txt",
			Grid: func(o Options) []Point { return creditPoints(o, handshakeFamily()...) },
		}, func(c Curve) string {
			return fmt.Sprintf("Figure 11 (%s): latency vs load by credit count, UR", c.Scheme.PaperName())
		}),
		tableStudy(Study{Name: "fig11f", ID: "E7", Paper: "Fig. 11(f)", Results: "fig11f.txt",
			Grid: func(Options) []Point { return fig11fPoints() }}, "\n",
			func(o Options, _ Params) (*stats.Table, error) { return Fig11f(o) }),
		fig12Study("fig12", "E8+E9", "Fig. 12", "fig12.txt", true, true),
		fig12Study("fig12a", "E8", "Fig. 12(a)", "", true, false),
		fig12Study("fig12b", "E9", "Fig. 12(b)", "", false, true),
		tableStudy(Study{Name: "table1", ID: "E10", Paper: "Table I", Results: "table1.txt"}, "",
			func(Options, Params) (*stats.Table, error) { return Table1(), nil }),
		Study{Name: "claims", ID: "E11", Paper: "§V-B claims", Results: "claims.txt", Run: runClaims},
		Study{Name: "fairness", ID: "X1", Paper: "§III-D (fairness)", Results: "fairness.txt", Run: runFairness},
		tableStudy(Study{Name: "swmr", ID: "X2", Paper: "§II-B (SWMR)", Results: "swmr.txt"},
			"\nReservation pays a notification round trip before every packet and\n"+
				"serialises per node; handshake sends immediately and absorbs receiver\n"+
				"contention with NACK/retransmit — the paper's argument, on SWMR.\n",
			func(o Options, _ Params) (*stats.Table, error) { return SWMRStudy(o) }),
		tableStudy(Study{Name: "scaling", ID: "X3", Paper: "large-scale argument", Results: "scaling.txt"}, "",
			func(o Options, _ Params) (*stats.Table, error) { return ScalingStudy(o) }),
		tableStudy(Study{Name: "multiflit", ID: "X4", Paper: "fn. 6 (multi-flit)", Results: "multiflit.txt",
			Params: []string{"load"}, Load: 0.05}, "",
			func(o Options, p Params) (*stats.Table, error) { return MultiFlitStudy(p.Load, o) }),
		tableStudy(Study{Name: "breakdown", ID: "X6", Paper: "§III (mechanism)", Params: []string{"load"}, Load: 0.05}, "\n",
			func(o Options, p Params) (*stats.Table, error) { return ExactBreakdown(p.Load, o) }),
		Study{Name: "workload", ID: "X7", Params: []string{"workload", "pattern"}, Run: runWorkload},
		Study{
			Name: "slo", ID: "X7", Grid: func(Options) []Point { return workloadGridPoints() },
			Run: func(out *Output, opts Options, _ Params) error {
				for _, p := range traffic.PresetWorkloads() {
					if err := runWorkload(out, opts, Params{Workload: p.Name, Pattern: "UR"}); err != nil {
						return err
					}
				}
				return nil
			},
		},
		Study{Name: "wavelengths", Run: runWavelengths},
		Study{Name: "analyze", Params: []string{"cycles"}, Run: runAnalyze},
		Study{Name: "trace-gen", Params: []string{"workload", "o", "cycles"}, Run: runTraceGen},
		Study{Name: "trace-dump", Params: []string{"o"}, Run: runTraceDump},
	)
}

// runWorkload renders one workload's per-phase SLO table under every
// scheme.
func runWorkload(out *Output, opts Options, p Params) error {
	pat, err := traffic.ByName(p.Pattern)
	if err != nil {
		return err
	}
	t, err := WorkloadSweep(p.Workload, pat, opts)
	if err != nil {
		return err
	}
	return out.Tables(t)
}

func runClaims(out *Output, opts Options, _ Params) error {
	for _, pat := range traffic.PaperPatterns() {
		c, err := Claims(pat.Name(), opts)
		if err != nil {
			return err
		}
		out.Printf("%s: global group: Token Channel %.4f -> best GHS %.4f (%+.0f%%); ",
			c.Pattern, c.GlobalBaseline, c.GlobalHandshake, c.GlobalGainPct)
		out.Printf("distributed group: Token Slot %.4f -> best DHS %.4f (%+.0f%%)\n",
			c.DistBaseline, c.DistHandshake, c.DistGainPct)
		out.Printf("%s: worst handshake rates: drop %.4f%%, retransmit %.4f%%, circulation %.4f%%\n",
			c.Pattern, 100*c.MaxDropRate, 100*c.MaxRetxRate, 100*c.MaxCirculateRate)
	}
	return nil
}

func runFig10(out *Output, opts Options, _ Params) error {
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

func runIPC(out *Output, opts Options, _ Params) error {
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
func runFairness(out *Output, opts Options, _ Params) error {
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
func runWavelengths(out *Output, _ Options, _ Params) error {
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

// synthesize builds an application's trace on the default network shape.
func synthesize(app trace.AppModel, opts Options, p Params) *trace.Trace {
	cfg := core.DefaultConfig(core.DHSSetaside)
	return app.Synthesize(cfg.Cores(), cfg.Nodes, p.Cycles, opts.Seed)
}

// runAnalyze prints the workload character of all 13 benchmark traces.
func runAnalyze(out *Output, opts Options, p Params) error {
	var analyses []trace.Analysis
	for _, app := range trace.Apps() {
		analyses = append(analyses, trace.Analyze(synthesize(app, opts, p)))
	}
	return out.Table(trace.AnalysisTable(analyses))
}

// runTraceGen synthesises one application's trace into a binary file.
func runTraceGen(out *Output, opts Options, p Params) error {
	app, err := trace.AppByName(p.Workload)
	if err != nil {
		return err
	}
	tr := synthesize(app, opts, p)
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
func runTraceDump(out *Output, _ Options, p Params) error {
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
