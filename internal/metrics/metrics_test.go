package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/obs/tsdb"
)

func TestSeriesAddAndStats(t *testing.T) {
	var s tsdb.Series
	s.Add(0, 1)
	s.Add(time.Second, 3)
	s.Add(2*time.Second, 5)
	if s.Len() != 3 || s.Max() != 5 {
		t.Fatalf("len=%d max=%v", s.Len(), s.Max())
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var s tsdb.Series
	s.Add(time.Second, 1)
	s.Add(0, 2)
}

func TestEmptySeriesStats(t *testing.T) {
	var s tsdb.Series
	if s.Max() != 0 {
		t.Fatal("empty series stats must be zero")
	}
}

func TestTimeWeightedMeanStepFunction(t *testing.T) {
	var s tsdb.Series
	s.Add(0, 0)
	s.Add(time.Second, 1) // value 1 for [1s,3s): 2 of 3 seconds
	got := s.TimeWeightedMean(0, 3*time.Second)
	if math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("got %v", got)
	}
}

func TestTimeWeightedMeanValueBeforeWindow(t *testing.T) {
	var s tsdb.Series
	s.Add(0, 4) // holds through the whole queried window
	got := s.TimeWeightedMean(10*time.Second, 20*time.Second)
	if got != 4 {
		t.Fatalf("got %v, want 4", got)
	}
}

func TestDownsample(t *testing.T) {
	var s tsdb.Series
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	d := s.Downsample(5 * time.Second)
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
	if d.Points[0].V != 2 || d.Points[1].V != 7 {
		t.Fatalf("points = %v", d.Points)
	}
}

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("short", 1.5)
	tb.AddRow("a-longer-name", 22.25)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[4], "a-longer-name  22.25") {
		t.Fatalf("row misaligned: %q", lines[4])
	}
}

func TestTableFloatTrim(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(2.0)
	tb.AddRow(2.5)
	tb.AddRow(0.125)
	if tb.Rows[0][0] != "2" || tb.Rows[1][0] != "2.5" || tb.Rows[2][0] != "0.125" {
		t.Fatalf("rows = %v", tb.Rows)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(1, "x,y")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}
