package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"kubeshare/internal/obs/tsdb"
)

// Chart renders time series as a column-per-bucket ASCII chart, so the
// timeline figures (6 and 9) are readable straight from the terminal
// without a plotting stack.
type Chart struct {
	Title string
	// Height is the number of text rows for the value axis (default 10).
	Height int
	// Width is the number of time buckets (default 60).
	Width int
	// YMax fixes the axis top; 0 auto-scales to the series maximum.
	YMax   float64
	series []*tsdb.Series
	marks  []rune
}

// chartMarks are assigned to series in order.
var chartMarks = []rune{'*', 'o', '+', 'x', '#', '@'}

// NewChart creates an empty chart.
func NewChart(title string) *Chart {
	return &Chart{Title: title, Height: 10, Width: 60}
}

// Add registers a series with the next free mark rune.
func (c *Chart) Add(s *tsdb.Series) *Chart {
	c.series = append(c.series, s)
	c.marks = append(c.marks, chartMarks[(len(c.series)-1)%len(chartMarks)])
	return c
}

// Render writes the chart to w. Each column is the bucket-average of the
// series; overlapping series at one cell keep the earlier mark.
func (c *Chart) Render(w io.Writer) {
	if len(c.series) == 0 {
		fmt.Fprintf(w, "== %s == (no series)\n", c.Title)
		return
	}
	var tMax time.Duration
	yMax := c.YMax
	for _, s := range c.series {
		if n := s.Len(); n > 0 {
			if last := s.Points[n-1].T; last > tMax {
				tMax = last
			}
		}
		if c.YMax == 0 {
			if m := s.Max(); m > yMax {
				yMax = m
			}
		}
	}
	if tMax == 0 || yMax == 0 {
		fmt.Fprintf(w, "== %s == (empty)\n", c.Title)
		return
	}
	bucket := tMax / time.Duration(c.Width)
	if bucket <= 0 {
		bucket = 1
	}
	// grid[row][col] with row 0 at the top.
	grid := make([][]rune, c.Height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", c.Width))
	}
	for si, s := range c.series {
		ds := s.Downsample(bucket)
		for _, p := range ds.Points {
			col := int(p.T / bucket)
			if col >= c.Width {
				col = c.Width - 1
			}
			frac := p.V / yMax
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			row := c.Height - 1 - int(math.Round(frac*float64(c.Height-1)))
			if grid[row][col] == ' ' {
				grid[row][col] = c.marks[si]
			}
		}
	}
	if c.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", c.Title)
	}
	for i, row := range grid {
		label := ""
		switch i {
		case 0:
			label = trimFloat(yMax)
		case c.Height - 1:
			label = "0"
		}
		fmt.Fprintf(w, "%8s |%s\n", label, string(row))
	}
	fmt.Fprintf(w, "%8s +%s\n", "", strings.Repeat("-", c.Width))
	fmt.Fprintf(w, "%8s 0%s%v\n", "", strings.Repeat(" ", c.Width-len(fmt.Sprint(tMax.Round(time.Second)))), tMax.Round(time.Second))
	var legend []string
	for i, s := range c.series {
		legend = append(legend, fmt.Sprintf("%c %s", c.marks[i], s.Name))
	}
	fmt.Fprintf(w, "%8s %s\n", "", strings.Join(legend, "   "))
}

// String renders the chart to a string.
func (c *Chart) String() string {
	var b strings.Builder
	c.Render(&b)
	return b.String()
}
