package metrics

import (
	"strings"
	"testing"
	"time"

	"kubeshare/internal/obs/tsdb"
)

func rampSeries(name string, n int, scale float64) *tsdb.Series {
	s := &tsdb.Series{Name: name}
	for i := 0; i < n; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i)*scale)
	}
	return s
}

func TestChartRendersAllSeries(t *testing.T) {
	c := NewChart("demo").Add(rampSeries("up", 60, 1)).Add(rampSeries("flat", 60, 0))
	out := c.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "o flat") {
		t.Fatalf("legend missing: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + axis + time row + legend
	if len(lines) != 1+10+1+1+1 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The ramp must reach the top row; the flat series sits on the bottom.
	if !strings.Contains(lines[1], "*") {
		t.Fatalf("ramp never reaches the top: %q", lines[1])
	}
	if !strings.Contains(lines[10], "o") {
		t.Fatalf("flat series not on the bottom row: %q", lines[10])
	}
}

func TestChartAutoScaleLabels(t *testing.T) {
	c := NewChart("scale").Add(rampSeries("s", 10, 2.5)) // max 22.5
	out := c.String()
	if !strings.Contains(out, "22.5") {
		t.Fatalf("y-axis max label missing: %q", out)
	}
}

func TestChartFixedYMax(t *testing.T) {
	c := NewChart("fixed")
	c.YMax = 1.0
	s := &tsdb.Series{Name: "u"}
	s.Add(0, 0.5)
	s.Add(time.Minute, 0.5)
	c.Add(s)
	out := c.String()
	lines := strings.Split(out, "\n")
	// Value 0.5 of max 1.0 → middle row, not the top.
	if strings.Contains(lines[1], "*") {
		t.Fatal("0.5 rendered at the 1.0 row")
	}
}

func TestChartEmpty(t *testing.T) {
	if out := NewChart("e").String(); !strings.Contains(out, "no series") {
		t.Fatalf("out = %q", out)
	}
	empty := &tsdb.Series{Name: "none"}
	if out := NewChart("e").Add(empty).String(); !strings.Contains(out, "empty") {
		t.Fatalf("out = %q", out)
	}
}
