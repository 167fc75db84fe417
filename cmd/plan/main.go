// Command plan answers capacity questions from the analytical twin
// without running a sweep: "what offered load can the configured network
// sustain under scheme X within a latency budget?"
//
// The twin (internal/twin) is inverted by bisection. When the answer
// lands outside the twin's validity envelope — the twin self-reports
// divergence above utilization 0.7 — plan refines it with a short
// simulation probe (exp.RunPoints) over candidate rates near saturation;
// below the envelope the answer is closed-form and instant.
//
// Examples:
//
//	plan                               # per-scheme capacity profile (no sim)
//	plan -scheme dhs -budget 15        # max load with mean latency <= 15 cycles
//	plan -scheme dhs -budget 40 -p99   # same, against the p99 estimate
//	plan -budget 20 -json              # every scheme, machine-readable
//	plan -scheme ghs -budget 500       # loose budget: refined by simulation
//	plan -scheme ghs -budget 500 -no-refine   # twin envelope edge, no sim
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"photon/internal/core"
	"photon/internal/exp"
	"photon/internal/stats"
	"photon/internal/traffic"
	"photon/internal/twin"
)

func main() { os.Exit(plan(os.Args[1:], os.Stdout, os.Stderr)) }

// plan is main without the process: it parses args, answers the query and
// returns the exit status (0 answered, 1 failed, 2 usage error).
func plan(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg planConfig
	fs.StringVar(&cfg.scheme, "scheme", "", "scheme to plan for (default: all registered schemes)")
	fs.Float64Var(&cfg.budget, "budget", 0, "latency budget in cycles (0: print the capacity profile instead)")
	fs.BoolVar(&cfg.p99, "p99", false, "budget the twin's p99 estimate instead of the mean")
	fs.BoolVar(&cfg.quick, "quick", false, "shorter simulation windows for the divergence-regime refinement")
	fs.BoolVar(&cfg.noRefine, "no-refine", false, "never simulate: report the twin's envelope-capped answer as-is")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit machine-readable JSON")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for the refinement simulations")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The refinement flags qualify a budget query; the profile has none.
	status := 0
	fs.Visit(func(f *flag.Flag) {
		if (f.Name == "quick" || f.Name == "seed" || f.Name == "no-refine") && cfg.budget == 0 && status == 0 {
			fmt.Fprintf(stderr, "plan: -%s needs -budget\n", f.Name)
			status = 2
		}
	})
	if status != 0 {
		return status
	}
	if err := run(stdout, cfg); err != nil {
		fmt.Fprintln(stderr, "plan:", err)
		return 1
	}
	return 0
}

type planConfig struct {
	scheme   string
	budget   float64
	p99      bool
	quick    bool
	noRefine bool
	jsonOut  bool
	seed     uint64
}

// Answer is one scheme's capacity answer (the -json document row).
type Answer struct {
	Scheme string  `json:"scheme"`
	Family string  `json:"family"`
	Metric string  `json:"metric"` // "mean" or "p99"
	Budget float64 `json:"budget"`
	// Rate is the highest sustainable offered load (packets/cycle/core)
	// within the budget.
	Rate        float64 `json:"rate"`
	Utilization float64 `json:"utilization"`
	// Latency is the predicted (or, when refined, measured) value of the
	// budgeted metric at Rate.
	Latency float64 `json:"latency"`
	// SaturationRate is the twin's saturation estimate.
	SaturationRate float64 `json:"saturation_rate"`
	// Source is "twin" for a closed-form answer, "twin+sim" when the
	// divergence fallback refined it by simulation, "twin-capped" when
	// refinement was disabled and the answer is the envelope edge.
	Source string `json:"source"`
	// Diverged reports that the twin flagged the answer's operating point
	// as outside its validity envelope.
	Diverged bool `json:"diverged"`
}

// Profile is one scheme's budget-free capacity profile row.
type Profile struct {
	Scheme         string  `json:"scheme"`
	Family         string  `json:"family"`
	SaturationRate float64 `json:"saturation_rate"`
	ZeroLoadMean   float64 `json:"zero_load_mean"`
	// EnvelopeRate is the highest rate the twin answers in closed form
	// (the divergence threshold times the saturation estimate).
	EnvelopeRate float64 `json:"envelope_rate"`
}

func run(out io.Writer, cfg planConfig) error {
	schemes := core.Schemes()
	if cfg.scheme != "" {
		s, err := core.ParseScheme(cfg.scheme)
		if err != nil {
			return err
		}
		schemes = []core.Scheme{s}
	}
	if math.IsNaN(cfg.budget) || math.IsInf(cfg.budget, 0) {
		return fmt.Errorf("-budget must be a finite number of cycles, got %g", cfg.budget)
	}
	if cfg.budget < 0 {
		return fmt.Errorf("budget must be positive, got %g", cfg.budget)
	}
	if cfg.budget == 0 && cfg.p99 {
		return fmt.Errorf("-p99 needs a -budget to compare against")
	}

	if cfg.budget == 0 {
		return profile(out, schemes, cfg.jsonOut)
	}

	var answers []Answer
	for _, s := range schemes {
		a, err := answer(s, cfg)
		if err != nil {
			return err
		}
		answers = append(answers, a)
	}
	if len(answers) > 1 {
		sortAnswers(answers) // the "which scheme for this SLO" ranking
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(answers)
	}
	metric := "mean"
	if cfg.p99 {
		metric = "p99"
	}
	t := stats.NewTable(fmt.Sprintf("capacity at %s latency <= %.1f cycles", metric, cfg.budget),
		"scheme", "family", "rate", "util", metric, "sat-rate", "source")
	for _, a := range answers {
		t.AddRow(a.Scheme, a.Family,
			fmt.Sprintf("%.4f", a.Rate),
			fmt.Sprintf("%.2f", a.Utilization),
			fmt.Sprintf("%.1f", a.Latency),
			fmt.Sprintf("%.4f", a.SaturationRate),
			a.Source)
	}
	return t.WriteText(out)
}

// profile prints the budget-free capacity profile straight off the twin.
func profile(out io.Writer, schemes []core.Scheme, jsonOut bool) error {
	var rows []Profile
	for _, s := range schemes {
		m, err := twin.NewDefault(s)
		if err != nil {
			return err
		}
		rows = append(rows, Profile{
			Scheme:         s.String(),
			Family:         m.Family(),
			SaturationRate: m.SaturationRate(),
			ZeroLoadMean:   m.ZeroLoadLatency(),
			EnvelopeRate:   twin.DivergenceUtilization * m.SaturationRate(),
		})
	}
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	t := stats.NewTable("analytical twin capacity profile (packets/cycle/core)",
		"scheme", "family", "sat-rate", "zero-load-mean", "closed-form-up-to")
	for _, r := range rows {
		t.AddRow(r.Scheme, r.Family,
			fmt.Sprintf("%.4f", r.SaturationRate),
			fmt.Sprintf("%.1f", r.ZeroLoadMean),
			fmt.Sprintf("%.4f", r.EnvelopeRate))
	}
	return t.WriteText(out)
}

// answer resolves one scheme's capacity query: twin bisection first,
// simulation refinement only in the self-reported divergence regime.
func answer(s core.Scheme, cfg planConfig) (Answer, error) {
	m, err := twin.NewDefault(s)
	if err != nil {
		return Answer{}, err
	}
	metric := "mean"
	if cfg.p99 {
		metric = "p99"
	}
	res := m.CapacityFor(cfg.budget, cfg.p99)
	a := Answer{
		Scheme:         s.String(),
		Family:         m.Family(),
		Metric:         metric,
		Budget:         cfg.budget,
		Rate:           res.Rate,
		Utilization:    res.Utilization,
		Latency:        metricOf(res.Prediction, cfg.p99),
		SaturationRate: m.SaturationRate(),
		Source:         "twin",
		Diverged:       res.Prediction.Diverged,
	}
	if !res.Prediction.Diverged {
		return a, nil
	}
	if cfg.noRefine {
		a.Source = "twin-capped"
		return a, nil
	}
	rate, latency, ok, err := refine(s, m, cfg)
	if err != nil {
		return Answer{}, err
	}
	a.Source = "twin+sim"
	if ok {
		a.Rate = rate
		a.Latency = latency
		a.Utilization = rate / m.SaturationRate()
	} else {
		// No probed rate sustains the budget: fall back to the envelope
		// edge, the highest closed-form answer known to satisfy it.
		edge := twin.DivergenceUtilization * m.SaturationRate()
		p := m.Predict(edge)
		a.Rate, a.Utilization, a.Latency, a.Diverged = edge, p.Utilization, metricOf(p, cfg.p99), false
	}
	return a, nil
}

func metricOf(p twin.Prediction, p99 bool) float64 {
	if p99 {
		return p.P99
	}
	return p.Mean
}

// refine probes the divergence regime with short supervised simulations:
// candidate rates from the envelope edge to 10% past the twin's
// saturation estimate, in parallel under exp.RunPoints, keeping the
// highest rate that sustains its offered load (throughput within 3%) and
// meets the budget on the *measured* metric.
func refine(s core.Scheme, m *twin.Model, cfg planConfig) (rate, latency float64, ok bool, err error) {
	opts := exp.DefaultOptions()
	if cfg.quick {
		opts = exp.QuickOptions()
	}
	opts.Seed = cfg.seed

	lo := twin.DivergenceUtilization * m.SaturationRate()
	hi := 1.1 * m.SaturationRate()
	const probes = 8
	points := make([]exp.Point, probes)
	for i := range points {
		points[i] = exp.Point{Scheme: s, Pattern: traffic.UniformRandom{}, Rate: lo + (hi-lo)*float64(i+1)/probes}
	}
	results, err := exp.RunPoints(points, opts)
	if err != nil {
		return 0, 0, false, fmt.Errorf("refining %s: %w", s, err)
	}
	metric := func(r core.Result) float64 {
		if cfg.p99 {
			return float64(r.P99Latency)
		}
		return r.AvgLatency
	}
	best := -1
	for i, r := range results {
		if r.Throughput >= 0.97*points[i].Rate && metric(r) <= cfg.budget {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false, nil
	}
	return points[best].Rate, metric(results[best]), true, nil
}

// sortAnswers orders answers by sustainable rate, highest first — the
// "which scheme should I deploy for this SLO" view.
func sortAnswers(answers []Answer) {
	sort.SliceStable(answers, func(i, j int) bool { return answers[i].Rate > answers[j].Rate })
}
