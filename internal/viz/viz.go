// Package viz renders latency-vs-load curves as ASCII charts, so the
// sweep tool can show the paper's figures directly in a terminal next to
// the numeric tables.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one plotted curve.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Chart is an ASCII scatter/line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot area columns (default 64)
	Height int // plot area rows (default 20)
	// YCap clips the y axis (the paper clips latency at 100 cycles);
	// 0 = auto-scale to the data.
	YCap   float64
	Series []Series
}

// seriesMarks are the per-series plot glyphs, in order.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Add appends a series.
func (c *Chart) Add(label string, x, y []float64) {
	c.Series = append(c.Series, Series{Label: label, X: x, Y: y})
}

// Render writes the chart.
func (c *Chart) Render(w io.Writer) error {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 20
	}

	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMax := 0.0
	for _, s := range c.Series {
		for i := range s.X {
			if s.X[i] < xMin {
				xMin = s.X[i]
			}
			if s.X[i] > xMax {
				xMax = s.X[i]
			}
			y := s.Y[i]
			if c.YCap > 0 && y > c.YCap {
				y = c.YCap
			}
			if y > yMax {
				yMax = y
			}
		}
	}
	if math.IsInf(xMin, 1) || xMax <= xMin {
		return fmt.Errorf("viz: nothing to plot")
	}
	if yMax <= 0 {
		yMax = 1
	}
	if c.YCap > 0 {
		yMax = c.YCap
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		mark := seriesMarks[si%len(seriesMarks)]
		for i := range s.X {
			col := int(float64(width-1) * (s.X[i] - xMin) / (xMax - xMin))
			y := s.Y[i]
			if c.YCap > 0 && y > c.YCap {
				y = c.YCap
			}
			row := height - 1 - int(float64(height-1)*y/yMax)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = mark
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for r := 0; r < height; r++ {
		yVal := yMax * float64(height-1-r) / float64(height-1)
		fmt.Fprintf(&b, "%8.1f |%s\n", yVal, string(grid[r]))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  %-*.4g%*.4g\n", "", width/2, xMin, width-width/2, xMax)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%8s  x: %s    y: %s\n", "", c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "%8s  %c %s\n", "", seriesMarks[si%len(seriesMarks)], s.Label)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
