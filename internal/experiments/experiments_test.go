package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/metrics"
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

// rowAt returns the row whose first cell is key.
func rowAt(t *testing.T, tb *metrics.Table, key string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == key {
			return row
		}
	}
	t.Fatalf("%s: no row %s", tb.Title, key)
	return nil
}

func TestFig5UsageProportionalToRate(t *testing.T) {
	withCanary(t)
	tb, err := Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	var utils []float64
	for _, row := range tb.Rows {
		utils = append(utils, cell(t, row[1]))
	}
	for i := 1; i < len(utils); i++ {
		if utils[i] <= utils[i-1] {
			t.Fatalf("utilization not increasing with rate: %v", utils)
		}
	}
	// 25ms kernels: rate 12 → ≈0.3, rate 40 → saturated ≈1.0.
	if u := cell(t, rowAt(t, tb, "12")[1]); math.Abs(u-0.3) > 0.05 {
		t.Fatalf("rate 12 utilization %.3f, want ≈0.3", u)
	}
	if u := cell(t, rowAt(t, tb, "40")[1]); u < 0.9 {
		t.Fatalf("rate 40 utilization %.3f, want ≈saturated", u)
	}
}

func TestFig6IsolationPhases(t *testing.T) {
	withCanary(t)
	res, err := Fig6(Quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table.Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Phase 1: A alone, throttled at its 0.6 limit.
	if a := cell(t, rows[0][2]); math.Abs(a-0.6) > 0.07 {
		t.Fatalf("phase 1 job A usage %.3f, want ≈0.6", a)
	}
	// Phase 2: A+B split the device ≈0.5 each.
	if a, b := cell(t, rows[1][2]), cell(t, rows[1][3]); math.Abs(a-0.5) > 0.07 || math.Abs(b-0.5) > 0.07 {
		t.Fatalf("phase 2 usage %.3f/%.3f, want ≈0.5 each", a, b)
	}
	// Phase 3: all three at their gpu_requests (0.3/0.4/0.3).
	a, b, c := cell(t, rows[2][2]), cell(t, rows[2][3]), cell(t, rows[2][4])
	if math.Abs(a-0.3) > 0.08 || math.Abs(b-0.4) > 0.08 || math.Abs(c-0.3) > 0.08 {
		t.Fatalf("phase 3 usage %.3f/%.3f/%.3f, want ≈0.3/0.4/0.3", a, b, c)
	}
}

func TestFig7OverheadUnderFivePercent(t *testing.T) {
	withCanary(t)
	tb, err := Fig7(Quick)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, row := range tb.Rows {
		norm := cell(t, row[2])
		if norm < 0.94 || norm > 1.001 {
			t.Fatalf("quota %s: normalized throughput %.4f outside [0.94, 1]", row[0], norm)
		}
		if i > 0 && norm < prev-0.002 {
			t.Fatalf("throughput decreasing with larger quota: %v", tb.Rows)
		}
		prev = norm
	}
}

func TestFig8aSharingDoublesSaturatedThroughput(t *testing.T) {
	withCanary(t)
	tb, err := Fig8a(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Light load: similar throughput. Heavy load: KubeShare ≈2× Kubernetes.
	light := tb.Rows[0]
	heavy := tb.Rows[len(tb.Rows)-1]
	if s := cell(t, light[4]); s < 0.9 || s > 1.6 {
		t.Fatalf("light-load speedup %.2f, want ≈1", s)
	}
	if s := cell(t, heavy[4]); s < 1.6 {
		t.Fatalf("heavy-load speedup %.2f, want ≳2 (sharing benefit)", s)
	}
}

func TestFig8bGainShrinksWithDemand(t *testing.T) {
	withCanary(t)
	tb, err := Fig8b(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	low20, high60 := rowAt(t, tb, "0.2"), rowAt(t, tb, "0.6")
	low := cell(t, low20[3])
	high := cell(t, high60[3])
	if low < 1.8 {
		t.Fatalf("speedup at 20%% demand %.2f, want ≳2", low)
	}
	if high > low-0.5 {
		t.Fatalf("speedup did not shrink with demand: %.2f → %.2f", low, high)
	}
	// Kubernetes is demand-agnostic.
	k8sLow, k8sHigh := cell(t, low20[1]), cell(t, high60[1])
	if math.Abs(k8sLow-k8sHigh)/k8sLow > 0.2 {
		t.Fatalf("kubernetes throughput should be demand-agnostic: %.2f vs %.2f", k8sLow, k8sHigh)
	}
}

func TestFig8cVarianceFlat(t *testing.T) {
	withCanary(t)
	tb, err := Fig8c(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cell(t, rowAt(t, tb, "0.5")[2]), cell(t, rowAt(t, tb, "4")[2])
	if math.Abs(lo-hi)/lo > 0.25 {
		t.Fatalf("KubeShare throughput varies with demand variance: %.2f vs %.2f", lo, hi)
	}
}

func TestFig9KubeShareFinishesSoonerWithFewerGPUs(t *testing.T) {
	withCanary(t)
	// The quick run is the Figure 9 regime where KubeShare holds fewer,
	// busier GPUs (see fig9Runs).
	res, err := Fig9(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan[KubeShare] >= res.Makespan[Kubernetes] {
		t.Fatalf("makespans: kubeshare %v vs kubernetes %v, want kubeshare sooner",
			res.Makespan[KubeShare], res.Makespan[Kubernetes])
	}
	// During the saturated middle third, Kubernetes holds all 8 GPUs while
	// KubeShare holds fewer.
	mid := res.Makespan[KubeShare] / 2
	k8sActive := res.Active[Kubernetes].TimeWeightedMean(mid-10*time.Second, mid+10*time.Second)
	ksActive := res.Active[KubeShare].TimeWeightedMean(mid-10*time.Second, mid+10*time.Second)
	if k8sActive < 7.5 {
		t.Fatalf("kubernetes active GPUs %.1f, want all 8 under saturation", k8sActive)
	}
	if ksActive >= k8sActive {
		t.Fatalf("active GPUs: kubeshare %.1f vs kubernetes %.1f, want fewer", ksActive, k8sActive)
	}
	// And its active GPUs are better utilized on average.
	ksUtil := res.Util[KubeShare].TimeWeightedMean(0, res.Makespan[KubeShare])
	k8sUtil := res.Util[Kubernetes].TimeWeightedMean(0, res.Makespan[Kubernetes])
	if ksUtil <= k8sUtil {
		t.Fatalf("avg utilization: kubeshare %.3f vs kubernetes %.3f", ksUtil, k8sUtil)
	}
}

func TestFig10OverheadShape(t *testing.T) {
	withCanary(t)
	tb, err := Fig10(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		warm := cell(t, row[4])
		cold := cell(t, row[5])
		if warm < 1.02 || warm > 1.35 {
			t.Fatalf("concurrency %s: warm overhead %.2f outside the ≈1.15 regime", row[0], warm)
		}
		if cold < 1.5 || cold > 2.8 {
			t.Fatalf("concurrency %s: cold overhead %.2f outside the ≈2x regime", row[0], cold)
		}
	}
}

func TestFig11LinearAndFast(t *testing.T) {
	withCanary(t)
	tb, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	small := cell(t, rowAt(t, tb, "10")[1])
	large := cell(t, rowAt(t, tb, "100")[1])
	if large < small {
		t.Fatalf("decision time shrank with more sharePods: %v vs %v", small, large)
	}
	// The paper reports <400ms at 100 sharePods on their stack; the pure Go
	// implementation must be far under that.
	if large > 400_000 {
		t.Fatalf("decision at 100 sharePods took %.0fµs, exceeding the paper's 400ms", large)
	}
}

func TestFig12InterferenceShape(t *testing.T) {
	withCanary(t)
	tb, err := Fig12(Quick)
	if err != nil {
		t.Fatal(err)
	}
	slow := map[string][]float64{}
	for _, row := range tb.Rows {
		slow[row[0]] = append(slow[row[0]], cell(t, row[2]))
	}
	for _, v := range slow["A+A"] {
		if v > 1.12 {
			t.Fatalf("A+A slowdown %v, want ≲1.1", slow["A+A"])
		}
	}
	for _, v := range slow["B+B"] {
		if v < 1.3 || v > 1.75 {
			t.Fatalf("B+B slowdown %v, want ≈1.5", slow["B+B"])
		}
	}
	// Paper reports <10% for A-combos; the strictly exclusive token model
	// cannot overlap one tenant's host phase with the other's kernels, so
	// B-in-A+B lands near its queueing bound (~1.25). Documented in
	// EXPERIMENTS.md as the one quantitative deviation.
	for _, v := range slow["A+B"] {
		if v > 1.3 {
			t.Fatalf("A+B slowdown %v, want well below B+B's 1.5", slow["A+B"])
		}
	}
}

func TestFig13Crossover(t *testing.T) {
	withCanary(t)
	tb, err := Fig13(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Ratio 0 (all B): anti-affinity behaves like Kubernetes; no-label
	// KubeShare wins by sharing despite interference.
	r0 := rowAt(t, tb, "0")
	k8s0, ks0, anti0 := cell(t, r0[1]), cell(t, r0[2]), cell(t, r0[3])
	if ks0 <= k8s0 {
		t.Fatalf("ratio 0: kubeshare %.2f should beat kubernetes %.2f", ks0, k8s0)
	}
	if math.Abs(anti0-k8s0)/k8s0 > 0.35 {
		t.Fatalf("ratio 0: anti-affinity %.2f should be near kubernetes %.2f", anti0, k8s0)
	}
	// Ratio 1 (all A): both KubeShare settings coincide and beat Kubernetes.
	r1 := rowAt(t, tb, "1")
	k8s1, ks1, anti1 := cell(t, r1[1]), cell(t, r1[2]), cell(t, r1[3])
	if ks1 <= 1.3*k8s1 || anti1 <= 1.3*k8s1 {
		t.Fatalf("ratio 1: kubeshare %.2f/%.2f should clearly beat kubernetes %.2f", ks1, anti1, k8s1)
	}
	if math.Abs(ks1-anti1)/ks1 > 0.15 {
		t.Fatalf("ratio 1: both kubeshare settings should coincide: %.2f vs %.2f", ks1, anti1)
	}
}

func TestFig14AvailabilitySurvivesFaults(t *testing.T) {
	tb, err := Fig14(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	control, faulted := rowAt(t, tb, "0"), rowAt(t, tb, "1")
	if cell(t, control[1]) != 0 {
		t.Fatalf("control row delivered faults: %s", control[1])
	}
	if cell(t, faulted[1]) == 0 {
		t.Fatal("faulted row delivered no faults")
	}
	// The fault-free control completes everything; under faults recovery
	// must keep the vast majority alive (a device fault poisoning an active
	// context legitimately kills that job — it is terminal, not wedged).
	if cell(t, control[4]) != 1 {
		t.Fatalf("control availability %s, want 1", control[4])
	}
	if a := cell(t, faulted[4]); a < 0.75 {
		t.Fatalf("faulted availability %.3f, want >= 0.75", a)
	}
	// Faults cost time, never work: the faulted makespan dominates.
	if cell(t, faulted[9]) < cell(t, control[9]) {
		t.Fatalf("faulted makespan %s shorter than control %s", faulted[9], control[9])
	}
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
	// outage follow the medium's real bytes, so a change to the codec or the
	// restart path moves them.
	var rows []string
	for _, row := range tb.Rows {
		rows = append(rows, strings.Join(row, " "))
	}
	want := "20 5 2 0 42 0.102 0.00 0 12 56.0\n20 -1 2 0 209 0.465 0.00 0 12 56.0\n" +
		"10 5 6 2 82 0.224 0.00 0 12 56.0\n10 -1 6 2 799 1.777 0.00 0 12 56.0"
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

func TestTable1FragmentationContrast(t *testing.T) {
	withCanary(t)
	tb, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	get := func(scenario, metric string) (deep, ext, ks float64) {
		for _, row := range tb.Rows {
			if row[0] == scenario && row[1] == metric {
				return cell(t, row[2]), cell(t, row[3]), cell(t, row[4])
			}
		}
		t.Fatalf("row %s/%s missing", scenario, metric)
		return 0, 0, 0
	}
	_, extActive, ksActive := get("mixed demands (Fig 3)", "active GPUs")
	if !(ksActive < extActive) {
		t.Fatalf("active GPUs: kubeshare %v vs extender %v, want fewer (Fig 3b)", ksActive, extActive)
	}
	deepOver, extOver, ksOver := get("contending 0.6s", "over-committed GPUs")
	if extOver == 0 {
		t.Fatal("extender should over-commit under contending 0.6 demands (Fig 3a)")
	}
	if ksOver != 0 {
		t.Fatalf("kubeshare over-committed %v devices", ksOver)
	}
	// Deepomatic mode piles everything on one device.
	deepActive, _, _ := get("contending 0.6s", "active GPUs")
	if deepActive != 1 || deepOver != 1 {
		t.Fatalf("deepomatic: active=%v overcommitted=%v, want 1/1 (single-device)", deepActive, deepOver)
	}
}
