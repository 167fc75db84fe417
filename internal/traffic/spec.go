package traffic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The workload spec grammar — the one canonical string form shared by
// CLI flags, tapes, farm manifest keys and the grid registry:
//
//	workload := phases [ '|' clients ]
//	phases   := phase { ';' phase }
//	phase    := [ dur '@' ] proc
//	dur      := FLOAT            fraction of the injection span
//	          | INT 'c'          absolute cycles
//	proc     := name '(' [ params ] ')'
//	clients  := 'clients' '(' params ')'
//	params   := key '=' value { ',' key '=' value }
//
// Processes: bernoulli(rate=), burst(rate=,on=,off=),
// flash(base=,peak=,at=,width=), diurnal(mean=,amp=,period=).
// Client maps: clients(n=,hot=,cores=).
//
// A single full-span phase omits its duration: "bernoulli(rate=0.1)".
// Phased example, 40% warm traffic then a bursty regime:
//
//	0.4@bernoulli(rate=0.05);0.6@burst(rate=0.3,on=400,off=1200)
//
// Workload.String() emits the canonical form (params in definition
// order, %g floats); ParseWorkload accepts any parameter order and
// redundant whitespace but round-trips canonically.

// ParseWorkload parses spec into a validated Workload.
func ParseWorkload(spec string) (*Workload, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("traffic: empty workload spec")
	}
	head, clientPart, hasClients := strings.Cut(spec, "|")
	w := &Workload{}
	phases := strings.Split(head, ";")
	if len(phases) > maxSegments {
		return nil, fmt.Errorf("traffic: workload spec has %d phases (max %d)", len(phases), maxSegments)
	}
	for i, ph := range phases {
		seg, err := parsePhase(strings.TrimSpace(ph), len(phases) == 1)
		if err != nil {
			return nil, fmt.Errorf("traffic: phase %d: %w", i+1, err)
		}
		w.Segments = append(w.Segments, seg)
	}
	if hasClients {
		cm, err := parseClients(strings.TrimSpace(clientPart))
		if err != nil {
			return nil, fmt.Errorf("traffic: %w", err)
		}
		w.Clients = cm
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// MustParseWorkload is ParseWorkload for statically known specs (the
// preset table); it panics on error.
func MustParseWorkload(spec string) *Workload {
	w, err := ParseWorkload(spec)
	if err != nil {
		panic(err)
	}
	return w
}

// parsePhase parses "[dur@]proc". single reports whether this is the
// workload's only phase (which may omit its duration, meaning Frac = 1).
func parsePhase(s string, single bool) (Segment, error) {
	seg := Segment{}
	if at := strings.Index(s, "@"); at >= 0 {
		dur := strings.TrimSpace(s[:at])
		s = strings.TrimSpace(s[at+1:])
		if cyc, ok := strings.CutSuffix(dur, "c"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(cyc), 10, 64)
			if err != nil {
				return seg, fmt.Errorf("bad cycle duration %q: %v", dur, err)
			}
			if n < 1 {
				return seg, fmt.Errorf("cycle duration %d must be >= 1", n)
			}
			seg.Cycles = n
		} else {
			f, err := strconv.ParseFloat(dur, 64)
			if err != nil {
				return seg, fmt.Errorf("bad duration %q: %v", dur, err)
			}
			seg.Frac = f
		}
	} else if single {
		seg.Frac = 1
	} else {
		return seg, fmt.Errorf("multi-phase workload needs a duration on every phase (got %q)", s)
	}
	name, params, err := parseCall(s)
	if err != nil {
		return seg, err
	}
	proc, err := buildProc(name, params)
	if err != nil {
		return seg, err
	}
	seg.Proc = proc
	return seg, nil
}

// parseCall splits "name(k=v,...)" into the name and its parameter map.
func parseCall(s string) (string, map[string]float64, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("expected name(params), got %q", s)
	}
	name := strings.TrimSpace(s[:open])
	body := s[open+1 : len(s)-1]
	params := map[string]float64{}
	if strings.TrimSpace(body) == "" {
		return name, params, nil
	}
	for _, kv := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", nil, fmt.Errorf("bad parameter %q (want key=value)", kv)
		}
		k = strings.TrimSpace(k)
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad value for %q: %v", k, err)
		}
		if _, dup := params[k]; dup {
			return "", nil, fmt.Errorf("duplicate parameter %q", k)
		}
		params[k] = f
	}
	return name, params, nil
}

// take pops a parameter, substituting def if absent (NaN = required).
func take(params map[string]float64, key string, def float64, missing *error) float64 {
	if v, ok := params[key]; ok {
		delete(params, key)
		return v
	}
	if def != def && *missing == nil { // def is NaN: required
		*missing = fmt.Errorf("missing required parameter %q", key)
	}
	return def
}

// leftover flags the unknown parameters left after all known ones were
// taken, every one of them and in sorted order, so a spec fails with the
// same error on every run.
func leftover(name string, params map[string]float64) error {
	if len(params) == 0 {
		return nil
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, strconv.Quote(k))
	}
	sort.Strings(keys)
	if len(keys) == 1 {
		return fmt.Errorf("unknown parameter %s for %s", keys[0], name)
	}
	return fmt.Errorf("unknown parameters %s for %s", strings.Join(keys, ", "), name)
}

var required = func() float64 { var nan float64; nan /= nan; return nan }() // NaN sentinel

// buildProc constructs the ArrivalSpec for a parsed process call.
func buildProc(name string, params map[string]float64) (ArrivalSpec, error) {
	var missing error
	var proc ArrivalSpec
	switch name {
	case "bernoulli":
		proc = BernoulliSpec{Rate: take(params, "rate", required, &missing)}
	case "burst":
		proc = BurstSpec{
			Rate: take(params, "rate", required, &missing),
			On:   take(params, "on", required, &missing),
			Off:  take(params, "off", required, &missing),
		}
	case "flash":
		proc = FlashSpec{
			Base:  take(params, "base", required, &missing),
			Peak:  take(params, "peak", required, &missing),
			At:    take(params, "at", 0.5, &missing),
			Width: take(params, "width", 0.1, &missing),
		}
	case "diurnal":
		proc = DiurnalSpec{
			Mean:   take(params, "mean", required, &missing),
			Amp:    take(params, "amp", required, &missing),
			Period: take(params, "period", required, &missing),
		}
	default:
		return nil, fmt.Errorf("unknown arrival process %q (bernoulli, burst, flash, diurnal)", name)
	}
	if missing != nil {
		return nil, fmt.Errorf("%s: %w", name, missing)
	}
	if err := leftover(name, params); err != nil {
		return nil, err
	}
	return proc, nil
}

// parseClients parses the "clients(n=,hot=,cores=)" suffix.
func parseClients(s string) (*ClientMap, error) {
	name, params, err := parseCall(s)
	if err != nil {
		return nil, err
	}
	if name != "clients" {
		return nil, fmt.Errorf("expected clients(...) after '|', got %q", name)
	}
	var missing error
	cm := &ClientMap{
		N:        int64(take(params, "n", required, &missing)),
		Hot:      take(params, "hot", 0, &missing),
		HotCores: int(take(params, "cores", 1, &missing)),
	}
	if missing != nil {
		return nil, fmt.Errorf("clients: %w", missing)
	}
	if err := leftover("clients", params); err != nil {
		return nil, err
	}
	return cm, nil
}

// WorkloadPreset is a named workload the CLI, the grid registry and the
// differential battery all share. Presets are the canonical serving
// scenarios of the ROADMAP's open-loop item; their specs are valid by
// construction (TestPresetWorkloadsParse pins it).
type WorkloadPreset struct {
	Name string
	Spec string
}

// PresetWorkloads returns the named workload presets in presentation
// order: a bursty on/off cohort, a flash crowd with a hot client
// population, and a phased diurnal schedule (warm steady phase, then a
// modulated day/night phase, then a cooldown).
func PresetWorkloads() []WorkloadPreset {
	return []WorkloadPreset{
		{Name: "bursty", Spec: "burst(rate=0.3,on=400,off=1200)"},
		{Name: "flash", Spec: "flash(base=0.04,peak=0.32,at=0.5,width=0.15)|clients(n=1000000,hot=0.25,cores=4)"},
		{Name: "diurnal", Spec: "0.25@bernoulli(rate=0.05);0.55@diurnal(mean=0.11,amp=0.8,period=2500);0.2@bernoulli(rate=0.03)"},
	}
}

// PresetWorkload resolves a preset name or, failing that, parses the
// argument as a workload spec — the resolution order behind the CLI
// -workload flag.
func PresetWorkload(nameOrSpec string) (*Workload, string, error) {
	for _, p := range PresetWorkloads() {
		if p.Name == nameOrSpec {
			w, err := ParseWorkload(p.Spec)
			return w, p.Spec, err
		}
	}
	w, err := ParseWorkload(nameOrSpec)
	if err != nil {
		return nil, "", err
	}
	return w, w.String(), nil
}
