package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestInjectedRegressionFails: a >=10% drop in a watched higher-is-better
// metric must trip the gate.
func TestInjectedRegressionFails(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig15_scheduler_throughput": {"batched_speedup": 63.66}},
		{"commit": "bbbbbbb", "fig15_scheduler_throughput": {"batched_speedup": 56.0}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("want 1 violation for a 12%% drop, got %d:\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "fig15_scheduler_throughput.batched_speedup") {
		t.Errorf("violation message missing the metric path:\n%s", out.String())
	}
}

// TestLowerIsBetterRegressionFails: a watched lower-is-better metric that
// rises past tolerance must trip the gate, and one within tolerance must
// not.
func TestLowerIsBetterRegressionFails(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig17_recovery_sweep": {"worst_nockpt_outage_ms": 200}},
		{"commit": "bbbbbbb", "fig17_recovery_sweep": {"worst_nockpt_outage_ms": 230}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("want 1 violation for a 15%% outage rise, got %d:\n%s", bad, out.String())
	}
	out.Reset()
	bad, err = gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig17_recovery_sweep": {"worst_nockpt_outage_ms": 200}},
		{"commit": "bbbbbbb", "fig17_recovery_sweep": {"worst_nockpt_outage_ms": 210}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("a 5%% rise is within the 10%% tolerance, got %d violations:\n%s", bad, out.String())
	}
}

// TestFigureWallClockStepFails: the regression the wall-clock rules exist
// for — Fig9's ns/op stepping 5x between two records (95 ms -> 475 ms, the
// shape of the per-lease backoff seeding) — must trip the gate, while a
// 10% wobble between runs must not.
func TestFigureWallClockStepFails(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "benchmarks": {"BenchmarkFig9Utilization": {"ns_op": 95000000}}},
		{"commit": "bbbbbbb", "benchmarks": {"BenchmarkFig9Utilization": {"ns_op": 475000000}}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "benchmarks.BenchmarkFig9Utilization.ns_op rose") {
		t.Fatalf("a 5x Fig9 ns/op step passed the gate (%d violations):\n%s", bad, out.String())
	}
	out.Reset()
	if _, err = gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "benchmarks": {"BenchmarkFig9Utilization": {"ns_op": 95000000}}},
		{"commit": "bbbbbbb", "benchmarks": {"BenchmarkFig9Utilization": {"ns_op": 104500000}}}
	]}`), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "BenchmarkFig9Utilization.ns_op rose") {
		t.Fatalf("a 10%% Fig9 wobble is within the 25%% tolerance:\n%s", out.String())
	}
}

// TestMicroBenchmarkAllocsHeldExactly: one allocation per launch appearing
// on a zero-alloc micro-benchmark fails, with no tolerance.
func TestMicroBenchmarkAllocsHeldExactly(t *testing.T) {
	var out strings.Builder
	if _, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "benchmarks": {"BenchmarkFrontendLaunchKernel/token": {"allocs_op": 1}}}
	]}`), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "benchmarks.BenchmarkFrontendLaunchKernel/token.allocs_op = 1") {
		t.Fatalf("1 alloc/op on the token launch path passed the gate:\n%s", out.String())
	}
}

// TestFanoutAllocsMustNotDependOnWatchers: one store write allocates the same
// at 1, 8 and 32 watchers. The shape the per-subscriber deep copy had (20 /
// 48 / 144) fails on both wider points; a flat row passes at whatever count
// it is flat at.
func TestFanoutAllocsMustNotDependOnWatchers(t *testing.T) {
	record := func(a1, a8, a32 int) []byte {
		return []byte(fmt.Sprintf(`{"records": [{"commit": "aaaaaaa", "benchmarks": {
			"BenchmarkStoreUpdateFanout/watchers=1": {"allocs_op": %d},
			"BenchmarkStoreUpdateFanout/watchers=8": {"allocs_op": %d},
			"BenchmarkStoreUpdateFanout/watchers=32": {"allocs_op": %d}}}]}`, a1, a8, a32))
	}
	const rule8 = "benchmarks.BenchmarkStoreUpdateFanout/watchers=8.allocs_op = 48"
	const rule32 = "benchmarks.BenchmarkStoreUpdateFanout/watchers=32.allocs_op = 144"
	var out strings.Builder
	if _, err := gate(record(20, 48, 144), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), rule8) || !strings.Contains(out.String(), rule32) {
		t.Fatalf("allocs/op growing with the watcher count passed the gate:\n%s", out.String())
	}
	// Flat is not enough: one allocation per status write is the budget.
	out.Reset()
	if _, err := gate(record(12, 12, 12), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "watchers=1.allocs_op = 12 in aaaaaaa exceeds the absolute budget 1") ||
		strings.Contains(got, "must equal") {
		t.Fatalf("a flat 12 allocs/op must fail the budget and only the budget:\n%s", got)
	}
	for _, flat := range []int{1, 0} {
		out.Reset()
		if _, err := gate(record(flat, flat, flat), &out); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out.String(), "BenchmarkStoreUpdateFanout") {
			t.Fatalf("a flat %d allocs/op failed the gate:\n%s", flat, out.String())
		}
	}
}

// TestStatusWriteCostMustNotDependOnSpec: Client.MutateStatus allocates the
// same on a pod with 64 env vars as on one with none. The shape three deep
// copies of the spec had fails; equal counts pass.
func TestStatusWriteCostMustNotDependOnSpec(t *testing.T) {
	record := func(env0, env64 int) []byte {
		return []byte(fmt.Sprintf(`{"records": [{"commit": "aaaaaaa", "benchmarks": {
			"BenchmarkClientMutateStatus/env=0": {"allocs_op": %d},
			"BenchmarkClientMutateStatus/env=64": {"allocs_op": %d}}}]}`, env0, env64))
	}
	var out strings.Builder
	if _, err := gate(record(24, 33), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "benchmarks.BenchmarkClientMutateStatus/env=64.allocs_op = 33") {
		t.Fatalf("allocs/op growing with the spec passed the gate:\n%s", out.String())
	}
	out.Reset()
	if _, err := gate(record(2, 2), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "BenchmarkClientMutateStatus") {
		t.Fatalf("equal allocs/op failed the gate:\n%s", out.String())
	}
}

// TestLoggingAWriteAllocatesNothing: a durable status write allocates what a
// volatile one does. The JSON codec's 25 fails; equal counts pass.
func TestLoggingAWriteAllocatesNothing(t *testing.T) {
	record := func(volatile, durable int) []byte {
		return []byte(fmt.Sprintf(`{"records": [{"commit": "aaaaaaa", "benchmarks": {
			"BenchmarkStoreUpdateFanout/watchers=1": {"allocs_op": %d},
			"BenchmarkDurableWrite": {"allocs_op": %d}}}]}`, volatile, durable))
	}
	var out strings.Builder
	if _, err := gate(record(1, 25), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "benchmarks.BenchmarkDurableWrite.allocs_op = 25") {
		t.Fatalf("a logged write allocating 24 times more than a volatile one passed the gate:\n%s", out.String())
	}
	out.Reset()
	if _, err := gate(record(1, 1), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "BenchmarkDurableWrite") {
		t.Fatalf("equal allocs/op failed the gate:\n%s", out.String())
	}
}

// TestAbsoluteBudget: absMax rules bound the newest record regardless of
// history depth.
func TestAbsoluteBudget(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "obs_overhead": {"overhead": 0.07}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("want 1 violation for 7%% obs overhead against the 5%% budget, got %d", bad)
	}
}

// TestRequeueStormFails: decisions per sharePod on the fig16 sweep carry an
// absolute budget of 2.0. The value the 10k point read while every pending
// unit was re-decided every cycle (5.4) must trip it; the parked driver's
// (1.0035) must not.
func TestRequeueStormFails(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig16_scale_sweep": {
			"sharepods_10000": {"wall_ms": 440, "decisions_per_sharepod": 5.4},
			"sharepods_100000": {"wall_ms": 12500, "decisions_per_sharepod": 1.0042}}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 || !strings.Contains(out.String(), "fig16_scale_sweep.sharepods_10000.decisions_per_sharepod") {
		t.Fatalf("5.4 decisions per sharePod at 10k must be the one violation, got %d:\n%s", bad, out.String())
	}
	out.Reset()
	bad, err = gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig16_scale_sweep": {
			"sharepods_10000": {"wall_ms": 440, "decisions_per_sharepod": 1.0035},
			"sharepods_100000": {"wall_ms": 12500, "decisions_per_sharepod": 1.0042}}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("~1 decision per sharePod is within the budget, got %d violations:\n%s", bad, out.String())
	}
}

// TestFig16WallClockStepFails: the churn sweep's wall time at 10k and 100k
// sharePods is held within 25% of the previous record. The previous record
// here has the shape bench.sh wrote while the sweep still had event lanes
// (wall_ms beside lane keys the gate no longer reads); the newest has only
// the keys it writes now.
func TestFig16WallClockStepFails(t *testing.T) {
	const prev = `{"commit": "aaaaaaa", "fig16_scale_sweep": {
		"sharepods_10000": {"wall_ms": 796, "wall_ms_4lane": 737, "lane_speedup": 1.08, "decisions_per_sharepod": 1.0035},
		"sharepods_100000": {"wall_ms": 24185, "wall_ms_4lane": 27070, "lane_speedup": 0.89, "decisions_per_sharepod": 1.0042},
		"best_lane_speedup": 1.08, "meets_2_5x": false, "cpu_bound": true}}`
	newest := func(wall10k, wall100k int) string {
		return fmt.Sprintf(`{"commit": "bbbbbbb", "fig16_scale_sweep": {
			"sharepods_10000": {"wall_ms": %d, "decisions_per_sharepod": 1.0035},
			"sharepods_100000": {"wall_ms": %d, "decisions_per_sharepod": 1.0042}}}`, wall10k, wall100k)
	}
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [`+prev+`,`+newest(796, 36278)+`]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 || !strings.Contains(out.String(), "fig16_scale_sweep.sharepods_100000.wall_ms rose") {
		t.Fatalf("a 1.5x wall step at 100k must be the one violation, got %d:\n%s", bad, out.String())
	}
	out.Reset()
	bad, err = gate([]byte(`{"records": [`+prev+`,`+newest(440, 12500)+`]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("a record without the lane keys must pass, got %d violations:\n%s", bad, out.String())
	}
}

// TestSingleRecordSkipped: a section seen once has no baseline — skipped,
// not failed.
func TestSingleRecordSkipped(t *testing.T) {
	var out strings.Builder
	bad, err := gate([]byte(`{"records": [
		{"commit": "aaaaaaa", "fig15_scheduler_throughput": {"batched_speedup": 63.66}}
	]}`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("single-record section must be skipped, got %d violations:\n%s", bad, out.String())
	}
}

// TestCommittedHistoryPasses: the repository's own BENCH.json must clear
// the gate — the tolerances are calibrated against the real history.
func TestCommittedHistoryPasses(t *testing.T) {
	doc, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Skipf("no BENCH.json: %v", err)
	}
	var out strings.Builder
	bad, err := gate(doc, &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("committed BENCH.json fails the gate:\n%s", out.String())
	}
}
