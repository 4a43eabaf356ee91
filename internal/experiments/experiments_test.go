package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// cell parses a table cell as float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// TestFig15ThroughputPinned pins the quick run (200 and 1000 pending
// sharePods, batch 32, gangs of 4): virtual decisions per second of the
// three drivers at each depth and the batched speedup at 1000. Both are
// virtual-clock outputs, so they are held exactly (the acceptance bar is 3x
// at the full run's 10k).
func TestFig15ThroughputPinned(t *testing.T) {
	withCanary(t)
	tb, err := Fig15(Quick)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range tb.Rows {
		got = append(got, row[0]+" "+row[1]+" "+row[2])
	}
	got = append(got, fmt.Sprintf("speedup %.2f", cell(t, tb.Rows[4][2])/cell(t, tb.Rows[3][2])))
	want := "single 200 66.7, batched 200 1904.8, batched+gang 200 1904.8, " +
		"single 1000 66.7, batched 1000 2083.3, batched+gang 1000 2083.3, speedup 31.23"
	if strings.Join(got, ", ") != want {
		t.Fatalf("fig15 at 1000: %s, want %s", strings.Join(got, ", "), want)
	}
}

func TestFig17RecoverySweep(t *testing.T) {
	withCanary(t)
	tb, err := Fig17(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each restart mean has a checkpointed row, then one without periodic
	// checkpoints.
	p := fig17Runs[Quick]
	for i := 0; i < len(tb.Rows); i += 2 {
		ckpt, never := tb.Rows[i], tb.Rows[i+1]
		if cell(t, ckpt[2]) == 0 {
			t.Fatalf("restart mean %s delivered no restarts", ckpt[0])
		}
		// Same restart schedule either way — only recovery cost may differ.
		if cell(t, ckpt[2]) != cell(t, never[2]) || cell(t, ckpt[3]) != cell(t, never[3]) {
			t.Fatalf("restart schedules diverged across checkpoint intervals: %v vs %v", ckpt, never)
		}
		// Without periodic checkpoints every restart replays the whole WAL,
		// so both the replayed-record count and the modeled unavailability
		// window must strictly dominate the checkpointed row.
		if cell(t, never[4]) <= cell(t, ckpt[4]) {
			t.Fatalf("replayed: never=%s should exceed ckpt=%s", never[4], ckpt[4])
		}
		if cell(t, never[5]) <= cell(t, ckpt[5]) {
			t.Fatalf("outage_ms: never=%s should exceed ckpt=%s", never[5], ckpt[5])
		}
	}
	// Warm recovery: every job still completes in every cell.
	for i, row := range tb.Rows {
		if int(cell(t, row[8])) != p.jobs {
			t.Fatalf("row %d: %s/%d jobs succeeded under restarts", i, row[8], p.jobs)
		}
	}
	// And the rows themselves, exactly: replayed records and the modeled
	// outage follow the medium's real bytes, so a change to the codec, the
	// restart path or what the stored objects carry moves them.
	var rows []string
	for _, row := range tb.Rows {
		rows = append(rows, strings.Join(row, " "))
	}
	want := "20 5 2 0 36 0.085 0.00 0 12 56.0\n20 -1 2 0 180 0.397 0.00 0 12 56.0\n" +
		"10 5 6 2 69 0.180 0.00 0 12 56.0\n10 -1 6 2 669 1.476 0.00 0 12 56.0"
	if got := strings.Join(rows, "\n"); got != want {
		t.Errorf("fig17 rows:\n%s\nwant:\n%s", got, want)
	}
}

// TestFig18StrategiesPinned pins the quick strategy comparison (one node of
// 4 GPUs, 16 jobs of 10 s): throughput and mean stretch per
// strategy and kernel mix, and the memory-quantity witnesses (one typed
// rejection; 8 of 8 byte-sized jobs completed, none failed). Figure 19's
// attribution table over the same grid is pinned by fig19_table.golden
// (TestFig19Determinism).
func TestFig18StrategiesPinned(t *testing.T) {
	withCanary(t)
	tb, err := Fig18(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Fig18MemBytes(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range tb.Rows {
		got = append(got, strings.Join([]string{row[0], row[1], row[4], row[5]}, " "))
	}
	got = append(got, "membytes "+strings.Join([]string{mb.Rows[0][4], mb.Rows[1][2], mb.Rows[1][3]}, " "))
	want := []string{
		"token small-kernel 33.81 1.736",
		"mps small-kernel 35.62 1.641",
		"replica small-kernel 35.62 1.641",
		"token large-kernel 35.36 1.684",
		"mps large-kernel 35.39 1.682",
		"replica large-kernel 35.37 1.682",
		"membytes 1 8 0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fig18 quick:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
