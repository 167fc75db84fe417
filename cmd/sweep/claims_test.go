package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"photon/internal/exp"
)

// The claim table: every paper claim the repo reproduces is one named row
// with a measured band, read off the quick stdout of the catalog row that
// prints it. TestPinnedStdout checks each on the stdout it produced, as
// TestPinnedStdout/<row>/claim:<name>, so regenerating the pinned files
// for a deliberate change of bits keeps the claims checked. Bands are the
// range over `-quick -seed 1..6` plus a margin (±2 pp on percentages,
// ±0.1 pp on IPC gains, none on identities and constants); EXPERIMENTS.md
// ("Claim bands") has the per-seed values. Gains and orderings have one
// row per enhanced scheme. TOR gains have no row: the quick TOR load axis
// stops at 0.19, below the knees, so it would measure the axis.

type claim struct {
	name string
	row  string // the catalog row whose quick stdout holds the number
	// backs is a phrase of the EXPERIMENTS.md summary row the claim backs,
	// or studyLevel for a study's own result.
	backs, paper string
	lo, hi       float64 // the band, inclusive
	read         read
}

// read extracts one number from a row's stdout, failing t when it is not
// there.
type read func(t *testing.T, stdout string) float64

const studyLevel = "study-level"

// Summary rows, by a phrase of their "Claim (paper)" cell.
const (
	upTo62      = "by up to 62%"
	dropRates   = "Drop & retransmission rates below 1%"
	appLatency  = "Real-app latency cut"
	creditFree  = "independent of credits"
	hol         = "Setaside/circulation equivalent for HOL relief"
	hwOverhead  = "hardware overhead 0.4%"
	staticPower = "Laser+heating dominate power"
)

const (
	fig12a = "Figure 12(a):"
	ipcGHS = "IPC study: GHS w/ Setaside"
	ipcDHS = "IPC study: DHS w/ Setaside"
	fair   = "Fairness (§III-D): share of service by ring position, "
)

var claims = buildClaims()

func buildClaims() []claim {
	group := func(pat, baseline, best string) read {
		re := fmt.Sprintf(`(?m)^%s: .*%s ([\d.]+) -> best %s ([\d.]+)`, pat, baseline, best)
		return gain(matched(re, 1), matched(re, 2))
	}
	c := []claim{
		{"UR global-group gain (best GHS vs Token Channel, %)", "claims", upTo62, "up to +62%", 10.5, 15.1, group("UR", "Token Channel", "GHS")},
		{"UR distributed-group gain (best DHS vs Token Slot, %)", "claims", upTo62, "up to +62%", 7.2, 12.5, group("UR", "Token Slot", "DHS")},
		{"BC global-group gain (best GHS vs Token Channel, %)", "claims", upTo62, "up to +62%", 83.9, 88.3, group("BC", "Token Channel", "GHS")},
		{"BC distributed-group gain (best DHS vs Token Slot, %)", "claims", upTo62, "up to +62%", 9.5, 13.9, group("BC", "Token Slot", "DHS")},
	}
	for _, pat := range []string{"UR", "BC", "TOR"} {
		for _, rate := range []string{"drop", "retransmit", "circulation"} {
			re := fmt.Sprintf(`(?m)^%s: worst handshake rates: .*%s ([\d.]+)%%`, pat, rate)
			c = append(c, claim{pat + " worst " + rate + " rate (%)", "claims", dropRates, "< 1%", 0, 0, matched(re, 1)})
		}
	}
	reduction := func(line string, group int) read {
		return matched(`(?m)^`+regexp.QuoteMeta(line)+` *avg latency reduction (-?\d+)%, max (-?\d+)%`, group)
	}
	return append(c, []claim{
		{"Credit_16 == Credit_32 (max latency gap, cycles)", "fig2b", studyLevel, "plateau once credits cover the loop", 0, 0, spread("Figure 2(b):", "Credit_16", "Credit_32")},
		{"Credit_4 -> Credit_8 latency cut at 0.11 (%)", "fig2b", studyLevel, "saturation grows with credits", 95.5, 99.7, cutAt("Figure 2(b):", "0.11", "Credit_4", "Credit_8")},
		{"Credit_8 -> Credit_16 latency cut at 0.17 (%)", "fig2b", studyLevel, "saturation grows with credits", 41.5, 48.0, cutAt("Figure 2(b):", "0.17", "Credit_8", "Credit_16")},

		{"GHS w/ Setaside vs Token Channel latency cut at 0.11 (%)", "fig8:UR", upTo62, "GHS saturates later", 68.4, 75.9, cutAt("Figure 8 (UR):", "0.11", "Token Channel", "GHS w/ Setaside")},
		{"GHS w/ Setaside vs Token Channel latency cut at 0.19 (%)", "fig8:BC", upTo62, "GHS saturates later", 96.5, 100, cutAt("Figure 8 (BC):", "0.19", "Token Channel", "GHS w/ Setaside")},
		{"DHS w/ Setaside vs Token Slot latency cut at 0.17 (%)", "fig9:UR", upTo62, "setaside relieves HOL blocking", 39.1, 45.6, cutAt("Figure 9 (UR):", "0.17", "Token Slot", "DHS w/ Setaside")},
		{"DHS w/ Circulation vs Token Slot latency cut at 0.17 (%)", "fig9:UR", upTo62, "circulation relieves HOL blocking", 41.5, 48.0, cutAt("Figure 9 (UR):", "0.17", "Token Slot", "DHS w/ Circulation")},
		{"DHS w/ Circulation vs DHS w/ Setaside latency gap at 0.17 (%)", "fig9:UR", hol, "equivalent", 0.9, 7.0, gap("Figure 9 (UR):", "0.17", "DHS w/ Setaside", "DHS w/ Circulation")},
		{"DHS w/ Setaside vs Token Slot latency cut at 0.25 (%)", "fig9:BC", upTo62, "setaside relieves HOL blocking", 82.6, 89.3, cutAt("Figure 9 (BC):", "0.25", "Token Slot", "DHS w/ Setaside")},
		{"DHS w/ Circulation vs Token Slot latency cut at 0.25 (%)", "fig9:BC", upTo62, "circulation relieves HOL blocking", 82.9, 89.6, cutAt("Figure 9 (BC):", "0.25", "Token Slot", "DHS w/ Circulation")},
		{"DHS w/ Circulation vs DHS w/ Setaside latency gap at 0.25 (%)", "fig9:BC", hol, "equivalent", 0, 4.4, gap("Figure 9 (BC):", "0.25", "DHS w/ Setaside", "DHS w/ Circulation")},
		{"basic DHS vs Token Slot latency cut at 0.05 (%)", "fig9:BC", hol, "Token Slot beats basic DHS on BC (HOL blocking)", -40.0, -33.6, cutAt("Figure 9 (BC):", "0.05", "Token Slot", "DHS")},

		{"GHS w/ Setaside avg app latency cut (%)", "fig10", appLatency, "avg 42%", 12, 30, reduction("GHS w/ Setaside vs Token Channel:", 1)},
		{"GHS w/ Setaside max app latency cut (%)", "fig10", appLatency, "up to 59%", 66, 90, reduction("GHS w/ Setaside vs Token Channel:", 2)},
		{"DHS w/ Setaside avg app latency cut (%)", "fig10", appLatency, "avg 4%", 2, 10, reduction("DHS w/ Setaside vs Token Slot:", 1)},
		{"DHS w/ Setaside max app latency cut (%)", "fig10", appLatency, "-", 24, 38, reduction("DHS w/ Setaside vs Token Slot:", 2)},
		{"DHS w/ Circulation avg app latency cut (%)", "fig10", appLatency, "avg 4%", 2, 10, reduction("DHS w/ Circul.  vs Token Slot:", 1)},
		{"DHS w/ Circulation max app latency cut (%)", "fig10", appLatency, "-", 25, 39, reduction("DHS w/ Circul.  vs Token Slot:", 2)},

		{"GHS w/ Setaside mean IPC gain (%)", "ipc", studyLevel, "+15%", 0.0, 0.4, matched(`(?s)`+ipcGHS+`.*?mean IPC gain: ([+-][\d.]+)%`, 1)},
		{"DHS w/ Setaside mean IPC gain (%)", "ipc", studyLevel, "+1.3%", 0.0, 0.6, matched(`(?s)`+ipcDHS+`.*?mean IPC gain: ([+-][\d.]+)%`, 1)},
		{"GHS w/ Setaside worst-app IPC gain (%)", "ipc", studyLevel, "no app loses", -0.1, 0.1, over(ipcGHS, "gain %", slices.Min[[]float64])},
		{"DHS w/ Setaside worst-app IPC gain (%)", "ipc", studyLevel, "no app loses", -0.1, 0.1, over(ipcDHS, "gain %", slices.Min[[]float64])},

		{"GHS credits 4/8/16/32 identical (max latency gap, cycles)", "fig11", creditFree, "identical", 0, 0, spread("Figure 11 (GHS):", "Credit_4", "Credit_8", "Credit_16", "Credit_32")},
		{"GHS w/ Setaside credits 4/8/16/32 identical (max latency gap, cycles)", "fig11", creditFree, "identical", 0, 0, spread("Figure 11 (GHS w/ Setaside):", "Credit_4", "Credit_8", "Credit_16", "Credit_32")},
		{"DHS credits 4/8/16/32 identical (max latency gap, cycles)", "fig11", creditFree, "identical", 0, 0, spread("Figure 11 (DHS):", "Credit_4", "Credit_8", "Credit_16", "Credit_32")},
		{"DHS w/ Setaside credits 4/8/16/32 identical (max latency gap, cycles)", "fig11", creditFree, "identical", 0, 0, spread("Figure 11 (DHS w/ Setaside):", "Credit_4", "Credit_8", "Credit_16", "Credit_32")},
		{"DHS w/ Circulation credits 4/8/16/32 identical (max latency gap, cycles)", "fig11", creditFree, "identical", 0, 0, spread("Figure 11 (DHS w/ Circulation):", "Credit_4", "Credit_8", "Credit_16", "Credit_32")},

		{"GHS w/ Setaside 1 -> 2 slots latency cut (%)", "fig11f", studyLevel, "a couple of slots recover most", 80.1, 84.7, cutAt("Figure 11(f):", "GHS w/ Setaside", "Setaside_1", "Setaside_2")},
		{"GHS w/ Setaside 4 -> 16 slots latency cut (%)", "fig11f", studyLevel, "diminishing returns", -5.6, 10.6, cutAt("Figure 11(f):", "GHS w/ Setaside", "Setaside_4", "Setaside_16")},
		{"DHS w/ Setaside 1 -> 2 slots latency cut (%)", "fig11f", studyLevel, "a couple of slots recover most", 91.8, 96.4, cutAt("Figure 11(f):", "DHS w/ Setaside", "Setaside_1", "Setaside_2")},
		{"DHS w/ Setaside 4 -> 16 slots latency cut (%)", "fig11f", studyLevel, "diminishing returns", -2, 3.1, cutAt("Figure 11(f):", "DHS w/ Setaside", "Setaside_4", "Setaside_16")},

		{"laser+heating share of total power, lowest scheme (%)", "fig12", staticPower, "dominant", 55.5, 59.8, staticShare},
		// Token Channel is Figure 12(a)'s first row.
		{"Token Channel power over the next scheme (%)", "fig12", staticPower, "Token Channel most", 6.9, 11.4, gain(over(fig12a, "Total", func(v []float64) float64 { return slices.Max(v[1:]) }), at(fig12a, "Token Channel", "Total"))},
		{"Token Channel laser (W)", "fig12", staticPower, "global arbitration pays more laser", 18.27, 18.27, at(fig12a, "Token Channel", "Laser")},
		{"GHS laser (W)", "fig12", staticPower, "global arbitration pays more laser", 11.86, 11.86, at(fig12a, "GHS", "Laser")},
		{"Token Slot laser (W)", "fig12", staticPower, "global arbitration pays more laser", 10.79, 10.79, at(fig12a, "Token Slot", "Laser")},
		{"DHS w/ Circulation heating over DHS (W)", "fig12", staticPower, "circulation heats more rings", 0.25, 0.25, both(at(fig12a, "DHS w/ Circulation", "Heating"), at(fig12a, "DHS", "Heating"), func(c, d float64) float64 { return c - d })},

		{"GHS micro-ring overhead vs Token Slot (%)", "table1", hwOverhead, "0.4%", 0.390625, 0.390625, gain(at("Table I:", "Token Slot", "Micro-rings"), at("Table I:", "GHS", "Micro-rings"))},
		{"DHS micro-ring overhead vs Token Slot (%)", "table1", hwOverhead, "0.4%", 0.390625, 0.390625, gain(at("Table I:", "Token Slot", "Micro-rings"), at("Table I:", "DHS", "Micro-rings"))},
		{"DHS-cir micro-ring overhead vs Token Slot (%)", "table1", hwOverhead, "-", 1.5625, 1.5625, gain(at("Table I:", "Token Slot", "Micro-rings"), at("Table I:", "DHS-cir", "Micro-rings"))},
		{"GHS handshake waveguides", "table1", hwOverhead, "1 waveguide", 1, 1, at("Table I:", "GHS", "Handshake WG")},
		{"DHS handshake waveguides", "table1", hwOverhead, "1 waveguide", 1, 1, at("Table I:", "DHS", "Handshake WG")},

		{"SWMR Handshake vs Reservation latency cut at 0.020 (%)", "swmr", studyLevel, "handshake beats reservation", 64.1, 70.1, cutAt("SWMR extension:", "0.020", "Reservation", "Handshake")},
		{"SWMR Handshake w/ Setaside vs Reservation latency cut at 0.010 (%)", "swmr", studyLevel, "handshake beats reservation", 54.6, 59.3, cutAt("SWMR extension:", "0.010", "Reservation", "Handshake w/ Setaside")},
		{"SWMR Handshake w/ Setaside vs Reservation latency cut at 0.020 (%)", "swmr", studyLevel, "handshake beats reservation", 67.0, 73.1, cutAt("SWMR extension:", "0.020", "Reservation", "Handshake w/ Setaside")},

		{"DHS w/ Setaside vs Token Slot latency cut at R=32 (%)", "scaling", studyLevel, "credits collapse at scale", 96.2, 100, cutAt("Ring-size scaling:", "32", "Token Slot", "DHS w/ Setaside")},
		{"GHS w/ Setaside vs Token Channel latency cut at R=32 (%)", "scaling", studyLevel, "credits collapse at scale", 32.0, 37.1, cutAt("Ring-size scaling:", "32", "Token Channel", "GHS w/ Setaside")},
		{"DHS w/ Setaside latency growth R=8 -> 32 (%)", "scaling", studyLevel, "grows with flight time only", 217.6, 227.3, gain(at("Ring-size scaling:", "8", "DHS w/ Setaside"), at("Ring-size scaling:", "32", "DHS w/ Setaside"))},

		{"smallest message-latency growth per flit doubling (%)", "multiflit", studyLevel, "fn. 6 design", 29.8, 35.0, over("Multi-flit messages", "message latency", smallestStep)},

		{"GHS w/ Setaside starved sources with the policy", "fairness", studyLevel, "no starvation", 0, 0, at(fair+"GHS w/ Setaside,", "starved sources", "share (policy on)")},
		{"DHS w/ Setaside starved sources with the policy", "fairness", studyLevel, "no starvation", 0, 0, at(fair+"DHS w/ Setaside,", "starved sources", "share (policy on)")},
		{"DHS w/ Setaside far-quadrant share gained from the policy (pp)", "fairness", studyLevel, "policy redistributes service", 21.6, 25.6, farGain("DHS w/ Setaside")},
		{"DHS w/ Circulation starved sources with the policy", "fairness", studyLevel, "no starvation", 0, 0, at(fair+"DHS w/ Circulation,", "starved sources", "share (policy on)")},
		{"DHS w/ Circulation far-quadrant share gained from the policy (pp)", "fairness", studyLevel, "policy redistributes service", 21.6, 25.6, farGain("DHS w/ Circulation")},
	}...)
}

// check evaluates c on stdout.
func (c claim) check(t *testing.T, stdout string) {
	t.Helper()
	// Values are computed from printed decimals, so a band edge is met
	// to within float rounding.
	const eps = 1e-9
	if v := c.read(t, stdout); math.IsNaN(v) || v < c.lo-eps || v > c.hi+eps {
		t.Errorf("%s = %.4g, outside the band [%g, %g] (paper: %s)", c.name, v, c.lo, c.hi, c.paper)
	} else {
		t.Logf("%s = %.4g in [%g, %g] (paper: %s)", c.name, v, c.lo, c.hi, c.paper)
	}
}

// cellSep splits a line of a stats.Table's text form: WriteText pads
// every cell and joins them with two spaces, and no cell holds two.
var cellSep = regexp.MustCompile(`\s{2,}`)

// column reads column col of the table whose title line starts with
// title, top to bottom, with each row's first cell. The rows are the
// lines after the header and its rule that split into as many cells.
func column(t *testing.T, stdout, title, col string) (labels []string, vs []float64) {
	t.Helper()
	lines := strings.Split(stdout, "\n")
	i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, title) })
	if i < 0 || i+2 >= len(lines) {
		t.Fatalf("no table titled %q", title)
	}
	split := func(line string) []string { return cellSep.Split(strings.TrimSpace(line), -1) }
	cols := split(lines[i+1])
	j := slices.Index(cols, col)
	if j < 0 {
		t.Fatalf("%q has no column %q", title, col)
	}
	for _, line := range lines[i+3:] {
		cells := split(line)
		if len(cells) != len(cols) {
			break
		}
		// A trailing % or K is part of the print.
		labels, vs = append(labels, cells[0]), append(vs, parse(t, strings.TrimRight(cells[j], "%K")))
	}
	if len(vs) == 0 {
		t.Fatalf("%q has no rows", title)
	}
	return labels, vs
}

// at reads the cell at (row, col).
func at(title, row, col string) read {
	return func(t *testing.T, stdout string) float64 {
		t.Helper()
		labels, vs := column(t, stdout, title, col)
		i := slices.Index(labels, row)
		if i < 0 {
			t.Fatalf("%q has no row %q", title, row)
		}
		return vs[i]
	}
}

// matched reads regexp group i.
func matched(re string, i int) read {
	r := regexp.MustCompile(re)
	return func(t *testing.T, stdout string) float64 {
		t.Helper()
		m := r.FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("no line matches %q", re)
		}
		return parse(t, m[i])
	}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// both reads a and b and combines them.
func both(a, b read, f func(a, b float64) float64) read {
	return func(t *testing.T, stdout string) float64 { return f(a(t, stdout), b(t, stdout)) }
}

// gain is how much higher x is than base, in percent of base.
func gain(base, x read) read {
	return both(base, x, func(b, v float64) float64 { return 100 * (v - b) / b })
}

// cutAt is how much lower column col is than column base on one row, in
// percent of base.
func cutAt(title, row, base, col string) read {
	return both(at(title, row, base), at(title, row, col), func(b, v float64) float64 { return 100 * (b - v) / b })
}

// gap is how far column b is from column a on one row, in percent of a.
func gap(title, row, a, b string) read {
	return both(at(title, row, a), at(title, row, b), func(x, y float64) float64 { return 100 * math.Abs(y-x) / x })
}

// over reads one column and reduces it with f.
func over(title, col string, f func([]float64) float64) read {
	return func(t *testing.T, stdout string) float64 {
		_, vs := column(t, stdout, title, col)
		return f(vs)
	}
}

// spread is the largest gap, over the rows, between the first of cols and
// the others: 0 when they agree on every row.
func spread(title string, cols ...string) read {
	return func(t *testing.T, stdout string) float64 {
		_, first := column(t, stdout, title, cols[0])
		var most float64
		for _, c := range cols[1:] {
			_, vs := column(t, stdout, title, c)
			for i := range vs {
				most = max(most, math.Abs(vs[i]-first[i]))
			}
		}
		return most
	}
}

// staticShare is the lowest share, over the Figure 12(a) schemes, of
// laser plus heating in total power, in percent.
func staticShare(t *testing.T, stdout string) float64 {
	_, laser := column(t, stdout, fig12a, "Laser")
	_, heat := column(t, stdout, fig12a, "Heating")
	_, total := column(t, stdout, fig12a, "Total")
	share := math.Inf(1)
	for i := range total {
		share = min(share, 100*(laser[i]+heat[i])/total[i])
	}
	return share
}

// smallestStep is the smallest growth from one row to the next, in
// percent.
func smallestStep(lat []float64) float64 {
	step := math.Inf(1)
	for i := 1; i < len(lat); i++ {
		step = min(step, 100*(lat[i]-lat[i-1])/lat[i-1])
	}
	return step
}

// farGain is the farthest quadrant's share of service with the fairness
// policy on minus its share with it off, in percentage points.
func farGain(scheme string) read {
	title := fair + scheme + ","
	return both(at(title, "48..63", "share (policy off)"), at(title, "48..63", "share (policy on)"),
		func(off, on float64) float64 { return 100 * (on - off) })
}

// TestClaimsCoverSummary holds the claim table and EXPERIMENTS.md's
// "Summary of headline claims" to each other: every summary row is
// backed by a claim, and every claim reads a catalog row and backs one
// summary row or is marked study-level.
func TestClaimsCoverSummary(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, summary, _ := strings.Cut(string(doc), "\n## Summary of headline claims\n")
	summary, _, _ = strings.Cut(summary, "\n## ")
	var rows []string // each summary row's "Claim (paper)" cell
	for _, line := range strings.Split(summary, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && !strings.HasPrefix(cells[1], "---") && strings.TrimSpace(cells[1]) != "Claim (paper)" {
			rows = append(rows, strings.TrimSpace(cells[1]))
		}
	}
	backed := map[string]bool{}
	names := map[string]bool{}
	for _, c := range claims {
		if names[c.name] || c.lo > c.hi {
			t.Errorf("claim %q: name repeated or band [%g, %g] empty", c.name, c.lo, c.hi)
		}
		names[c.name] = true
		if _, err := exp.StudyByName(c.row); err != nil {
			t.Errorf("claim %q: %v", c.name, err)
		}
		var backs []string
		for _, r := range rows {
			if strings.Contains(r, c.backs) {
				backed[r] = true
				backs = append(backs, r)
			}
		}
		if c.backs != studyLevel && len(backs) != 1 {
			t.Errorf("claim %q backs %q, in %d summary rows; want 1, or mark it %s", c.name, c.backs, len(backs), studyLevel)
		}
	}
	for _, r := range rows {
		if !backed[r] {
			t.Errorf("summary row %q is backed by no claim", r)
		}
	}
}
