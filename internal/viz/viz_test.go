package viz

import (
	"strings"
	"testing"
)

// render renders c to a string.
func render(t *testing.T, c *Chart) string {
	t.Helper()
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRenderBasic(t *testing.T) {
	c := &Chart{Title: "demo", XLabel: "load", YLabel: "latency", YCap: 100}
	c.Add("a", []float64{0.01, 0.05, 0.1}, []float64{10, 20, 500})
	c.Add("b", []float64{0.01, 0.05, 0.1}, []float64{12, 14, 16})
	out := render(t, c)
	if !strings.Contains(out, "demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "* a") || !strings.Contains(out, "o b") {
		t.Fatalf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "100.0") {
		t.Fatalf("y axis not capped at 100:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("missing plot marks")
	}
}

func TestRenderEmptyErrors(t *testing.T) {
	c := &Chart{}
	var b strings.Builder
	if err := c.Render(&b); err == nil {
		t.Fatal("empty chart rendered without error")
	}
	c.Add("flat", []float64{1, 1}, []float64{5, 5})
	if err := c.Render(&b); err == nil {
		t.Fatal("degenerate x range accepted")
	}
}

func TestRenderAutoScale(t *testing.T) {
	c := &Chart{Height: 5, Width: 20}
	c.Add("a", []float64{0, 1}, []float64{0, 50})
	out := render(t, c)
	if !strings.Contains(out, "50.0") {
		t.Fatalf("auto-scaled max missing:\n%s", out)
	}
	// Marks at both corners.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "50.0") {
		t.Fatalf("top line should carry the max:\n%s", out)
	}
}

func TestManySeriesCycleMarks(t *testing.T) {
	c := &Chart{YCap: 10}
	for i := 0; i < 10; i++ {
		c.Add("s", []float64{0, 1}, []float64{1, 2})
	}
	out := render(t, c)
	if !strings.Contains(out, "* s") {
		t.Fatal("legend glyphs should cycle")
	}
	_ = out
}
