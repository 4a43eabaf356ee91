package experiments

import (
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/obs"
)

// TestFig16PlacementsPinned pins the quick run (sizes 500 and 2000 on 16
// nodes × 8 GPUs, batch 256) to its placements, decisions, conflicts and
// makespan, recorded when each sharePod came to be retired by a timer its
// placement arms and the waves to arrive one core.CycleLatency apart
// beyond the drain: one decision per sharePod and no conflict at both
// sizes. EXPERIMENTS.md's Figure 16 prose records the full-scale placement
// hashes.
func TestFig16PlacementsPinned(t *testing.T) {
	withCanary(t)
	tb, err := Fig16(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// sharepods, virtual_makespan_s, decisions, conflicts, placements_hash
	// (columns 0, 2, 3, 5, 6; wall_ms and the derived ratio are left out).
	want := [][5]string{
		{"500", "11.7", "500", "0", "9f709e929fdbaceb"},
		{"2000", "35.9", "2000", "0", "8be4ca6f72f16443"},
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

// TestWorkPerSharePodFlatInN holds the scheduler's work per sharePod
// constant in the sharePod count: Figure 16's driver on its full 128-node
// pool at 1k, 4k and 16k sharePods, each count per sharePod at 16k within
// 1.25× of its value at 1k. Decided-plus-skipped counts every pending unit a
// cycle's staging loop reached, so a backlog the cycles re-walk shows there
// even when each sharePod is decided once. With -v it prints the table.
func TestWorkPerSharePodFlatInN(t *testing.T) {
	var rt *obs.Runtime
	onServer = func(srv *apiserver.Server) { rt = srv.Obs() }
	t.Cleanup(func() { onServer = nil })
	counts := []struct {
		name    string
		metrics []string
	}{
		{"decisions", []string{core.MetricSchedDecisions}},
		{"decided+skipped", []string{core.MetricSchedDecisions, schedfw.MetricSchedSkipped}},
		{"apiserver reads", []string{"kubeshare_apiserver_read_requests_total"}},
		{"apiserver writes", []string{"kubeshare_apiserver_write_requests_total"}},
	}
	sizes := []int{1000, 4000, 16000}
	per := make([][]float64, len(counts))
	for _, n := range sizes {
		if _, err := fig16Run(n, fig16Runs[Full].nodes); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			var sum int64
			for _, m := range c.metrics {
				sum += rt.Counter(m).Value()
			}
			per[i] = append(per[i], float64(sum)/float64(n))
		}
	}
	t.Logf("%-16s %8d %8d %8d", "per sharePod", sizes[0], sizes[1], sizes[2])
	for i, c := range counts {
		t.Logf("%-16s %8.3f %8.3f %8.3f", c.name, per[i][0], per[i][1], per[i][2])
		if first, last := per[i][0], per[i][len(sizes)-1]; last > 1.25*first {
			t.Errorf("%s per sharePod: %.3f at %d, %.3f at %d (> 1.25×)", c.name, first, sizes[0], last, sizes[len(sizes)-1])
		}
	}
}
