package experiments

import "testing"

// TestFig16PlacementsPinned pins the quick-scale sweep (sizes 500 and 2000
// on 16 nodes × 8 GPUs, batch 256) to the placements, decisions and makespan
// that `kubeshare-sim fig16` printed at commit 8faef4f — recorded there on
// the parallel-phase cycle at one event lane, before that cycle and the
// lanes were deleted. The sequential batched cycle that remains must
// reproduce them exactly; the full-scale counterparts are in EXPERIMENTS.md.
func TestFig16PlacementsPinned(t *testing.T) {
	withCanary(t)
	tb, err := Fig16(Fig16Config{Sizes: []int{500, 2000}, Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	// sharepods, virtual_makespan_s, decisions, conflicts, placements_hash
	// (columns 0, 2, 3, 5, 6; wall_ms and the derived ratio are left out).
	want := [][5]string{
		{"500", "13.0", "508", "3", "0696a069027d3427"},
		{"2000", "43.0", "2060", "27", "7358dee2f9ec1217"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(want))
	}
	for i, row := range tb.Rows {
		if got := [5]string{row[0], row[2], row[3], row[5], row[6]}; got != want[i] {
			t.Errorf("row %d: %v, want %v", i, got, want[i])
		}
	}
}
