package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(100)
	for _, v := range []int64{1, 2, 2, 3, 100} {
		h.Add(v)
	}
	if h.Count() != 5 || h.sum != 108 || h.Max() != 100 {
		t.Fatalf("count %d sum %d max %d", h.Count(), h.sum, h.Max())
	}
	if got := h.Mean(); math.Abs(got-21.6) > 1e-9 {
		t.Fatalf("mean %.3f", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(0)
	for v := int64(1); v <= 100; v++ {
		h.Add(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{{0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %d, want %d", c.q, got, c.want)
		}
	}
	// Clamping.
	if h.Quantile(-1) != 1 || h.Quantile(2) != 100 {
		t.Error("quantile clamping wrong")
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10)
	h.Add(5)
	h.Add(1000) // overflow bin
	if h.Count() != 2 || h.Max() != 1000 {
		t.Fatalf("count %d max %d", h.Count(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-502.5) > 1e-9 {
		t.Fatalf("mean with overflow %.2f", got)
	}
	if got := h.Quantile(1); got != 11 {
		t.Fatalf("overflowed quantile = %d, want capValue+1 = 11", got)
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewHistogram(0).Add(-1)
}

func TestHistogramMeanMatchesDirect(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(1 << 15)
		var sum int64
		for _, v := range vals {
			h.Add(int64(v))
			sum += int64(v)
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		want := float64(sum) / float64(len(vals))
		return math.Abs(h.Mean()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanVar(t *testing.T) {
	var m MeanVar
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.n != 8 || math.Abs(m.Mean()-5) > 1e-12 {
		t.Fatalf("n %d mean %f", m.n, m.Mean())
	}
	if math.Abs(m.Var()-4) > 1e-12 {
		t.Fatalf("var %f, want 4", m.Var())
	}
}

func TestTableText(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", 1)
	tab.AddRow("b", 2.5)
	out := tab.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "alpha") || !strings.Contains(out, "2.500") {
		t.Fatalf("rendered:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	if len(tab.rows) != 2 {
		t.Fatalf("%d rows", len(tab.rows))
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow(`comma,here`, `quote"here`)
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"comma,here\",\"quote\"\"here\"\n"
	if b.String() != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", b.String(), want)
	}
}
