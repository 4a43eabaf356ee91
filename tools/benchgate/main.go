// Command benchgate is the perf-regression gate over BENCH.json: for each
// watched metric it compares the newest record carrying that section
// against the previous one and fails (exit 1) when the value moved past
// the rule's declared tolerance in the bad direction.
//
// Records accumulate oldest-first (bench.sh appends via tools/benchmerge),
// so "newest vs previous" is the last two records that contain the
// section — sections introduced by later sessions simply have a shorter
// history, and a section seen fewer than twice is skipped, not failed.
//
// Tolerances are deliberately loose for wall-clock-derived ratios
// (machines differ; bench.sh itself documents ±30% micro-benchmark noise)
// and tight for virtual-clock quantities, which are deterministic modulo
// intended behavior changes. An intended change that trips the gate is
// acknowledged by the new BENCH.json record itself — the gate compares
// the last two records, so the next run re-baselines.
//
// Usage:
//
//	go run ./tools/benchgate            # gate BENCH.json in the CWD
//	go run ./tools/benchgate -f FILE
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// rule watches one dotted path inside a record section.
type rule struct {
	// path is the dotted location of the value, rooted at the record
	// ("fig15_scheduler_throughput.batched_speedup"). The first segment
	// is the section whose presence selects comparable records.
	path string
	// higherBetter orients the comparison; ignored for absMax rules.
	higherBetter bool
	// relTol is the allowed fractional regression vs the previous record
	// (0.10 = fail past 10% worse). Zero disables the relative check.
	relTol float64
	// absMax, when non-nil, bounds the newest value absolutely — used for
	// budget metrics like the obs overhead, where "worse than last time
	// but still within budget" is fine.
	absMax *float64
	// sameAs, when set, is another path in the same record that the newest
	// value must equal exactly — for counts that may change over time but
	// must not depend on a parameter (allocs/op across watcher counts).
	sameAs string
}

func f(v float64) *float64 { return &v }

// rules is the watched-metric table. Virtual-clock ratios get tight
// tolerances; wall-clock-derived ones get loose tolerances.
var rules = []rule{
	// Batched-cycle speedup is a virtual-clock ratio; history is constant.
	{path: "fig15_scheduler_throughput.batched_speedup", higherBetter: true, relTol: 0.10},
	// Host cost of the churn sweep from 10k sharePods up (the 1k point is
	// tens of milliseconds: noise). Wall-clock, so loose.
	{path: "fig16_scale_sweep.sharepods_10000.wall_ms", higherBetter: false, relTol: 0.25},
	{path: "fig16_scale_sweep.sharepods_100000.wall_ms", higherBetter: false, relTol: 0.25},
	// Scheduler decisions per sharePod on the churn sweep: a deterministic
	// count with an absolute budget. Parked units keep it near 1; it read
	// 5.4 at 10k and 61 at 100k while every pending unit was re-decided
	// every cycle, and nothing watched it.
	{path: "fig16_scale_sweep.sharepods_10000.decisions_per_sharepod", absMax: f(2.0)},
	{path: "fig16_scale_sweep.sharepods_100000.decisions_per_sharepod", absMax: f(2.0)},
	// Modeled outage is virtual-clock.
	{path: "fig17_recovery_sweep.worst_nockpt_outage_ms", higherBetter: false, relTol: 0.10},
	// Strategy throughputs are virtual-clock from identical seeds.
	{path: "fig18_strategy_comparison.small_kernel.token_tput", higherBetter: true, relTol: 0.10},
	{path: "fig18_strategy_comparison.small_kernel.mps_tput", higherBetter: true, relTol: 0.10},
	{path: "fig18_strategy_comparison.mps_over_token_small", higherBetter: true, relTol: 0.10},
	// Attribution budget: end-to-end latency per strategy is virtual-clock
	// and the whole point of the fig19 experiment — a regression here is a
	// real latency regression, not noise.
	{path: "fig19_attribution.small_kernel.token_e2e_ms", higherBetter: false, relTol: 0.10},
	{path: "fig19_attribution.small_kernel.mps_e2e_ms", higherBetter: false, relTol: 0.10},
	{path: "fig19_attribution.large_kernel.token_e2e_ms", higherBetter: false, relTol: 0.10},
	// Open chains on the fig19 workloads mean sharePods that never
	// launched — zero by construction, any value is a bug.
	{path: "fig19_attribution.open_chains", absMax: f(0)},
	// Observability overhead carries an absolute budget (<= 5%), not a
	// relative one: run-to-run wall noise exceeds any sane relative tol.
	{path: "obs_overhead.overhead", absMax: f(0.05)},
	// Host cost of the two figure benchmarks (min ns/op over bench.sh's
	// rounds). Wall-clock, so loose — but the step this exists for was 4-5x:
	// a backoff generator seeded per token lease sat in BENCH.json for three
	// records while every virtual-clock rule above stayed green.
	{path: "benchmarks.BenchmarkFig8aJobFrequency.ns_op", higherBetter: false, relTol: 0.25},
	{path: "benchmarks.BenchmarkFig9Utilization.ns_op", higherBetter: false, relTol: 0.25},
	// allocs/op of the micro-benchmarks is exact and machine-independent,
	// so it is held with no tolerance at the value the history records
	// (TimerChurn's one allocation is its own per-iteration closure).
	{path: "benchmarks.BenchmarkTimerChurn.allocs_op", absMax: f(1)},
	{path: "benchmarks.BenchmarkProcContextSwitch.allocs_op", absMax: f(0)},
	{path: "benchmarks.BenchmarkQueueHandoff.allocs_op", absMax: f(0)},
	{path: "benchmarks.BenchmarkManyProcs.allocs_op", absMax: f(0)},
	{path: "benchmarks.BenchmarkSimKernelSameInstant.allocs_op", absMax: f(0)},
	{path: "benchmarks.BenchmarkSimKernelTimerStop.allocs_op", absMax: f(0)},
	{path: "benchmarks.BenchmarkSimKernelDeepHeap.allocs_op", absMax: f(0)},
	{path: "benchmarks.BenchmarkFrontendLaunchKernel/token.allocs_op", absMax: f(0)},
	{path: "benchmarks.BenchmarkFrontendLaunchKernel/replica.allocs_op", absMax: f(0)},
	{path: "benchmarks.BenchmarkFrontendLaunchKernel/mps.allocs_op", absMax: f(0)},
	// A store write costs the same however many controllers watch: the
	// published snapshot is shared, not cloned per subscriber, so allocs/op
	// of one status update is flat in the watcher count (it read 20 / 48 /
	// 144 at 1 / 8 / 32 watchers while notify deep-copied per delivery).
	{path: "benchmarks.BenchmarkStoreUpdateFanout/watchers=8.allocs_op", sameAs: "benchmarks.BenchmarkStoreUpdateFanout/watchers=1.allocs_op"},
	{path: "benchmarks.BenchmarkStoreUpdateFanout/watchers=32.allocs_op", sameAs: "benchmarks.BenchmarkStoreUpdateFanout/watchers=1.allocs_op"},
	// A status write costs one allocation — the new revision's struct; spec,
	// metadata and the label index are shared, not rebuilt (it read 12) — and
	// through Client.MutateStatus it costs the same however large the spec.
	{path: "benchmarks.BenchmarkStoreUpdateFanout/watchers=1.allocs_op", absMax: f(1)},
	{path: "benchmarks.BenchmarkClientMutateStatus/env=64.allocs_op", sameAs: "benchmarks.BenchmarkClientMutateStatus/env=0.allocs_op"},
	// Logging a write costs no allocation: the WAL frame is encoded in place
	// at the log's end, so a durable status write allocates what a volatile
	// one does (it read 25 while every record went through encoding/json
	// twice).
	{path: "benchmarks.BenchmarkDurableWrite.allocs_op", sameAs: "benchmarks.BenchmarkStoreUpdateFanout/watchers=1.allocs_op"},
}

// lookup resolves a dotted path inside a decoded record.
func lookup(rec map[string]any, path string) (float64, bool) {
	cur := any(rec)
	for _, seg := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[seg]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

// commit names a record for messages.
func commit(rec map[string]any) string {
	if c, ok := rec["commit"].(string); ok {
		return c
	}
	return "?"
}

// gate runs every rule against the decoded BENCH.json document and
// returns the number of violations, reporting each to w.
func gate(doc []byte, w io.Writer) (int, error) {
	var bench struct {
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal(doc, &bench); err != nil {
		return 0, fmt.Errorf("benchgate: %w", err)
	}
	bad := 0
	for _, r := range rules {
		section := strings.SplitN(r.path, ".", 2)[0]
		// The last two records carrying this section, newest last.
		var have []map[string]any
		for _, rec := range bench.Records {
			if _, ok := rec[section]; ok {
				have = append(have, rec)
			}
		}
		if len(have) == 0 {
			continue
		}
		newest := have[len(have)-1]
		nv, ok := lookup(newest, r.path)
		if !ok {
			fmt.Fprintf(w, "benchgate: %s: section present in %s but path missing\n", r.path, commit(newest))
			bad++
			continue
		}
		if r.sameAs != "" {
			if ov, ok := lookup(newest, r.sameAs); !ok || nv != ov {
				fmt.Fprintf(w, "benchgate: %s = %g in %s must equal %s (%g)\n",
					r.path, nv, commit(newest), r.sameAs, ov)
				bad++
			}
			continue
		}
		if r.absMax != nil {
			if nv > *r.absMax {
				fmt.Fprintf(w, "benchgate: %s = %g in %s exceeds the absolute budget %g\n",
					r.path, nv, commit(newest), *r.absMax)
				bad++
			}
			continue
		}
		if len(have) < 2 {
			continue // first record with this section: nothing to compare
		}
		prev := have[len(have)-2]
		pv, ok := lookup(prev, r.path)
		if !ok || pv == 0 {
			continue
		}
		change := nv/pv - 1
		if !r.higherBetter {
			change = -change
		}
		if change < -r.relTol {
			dir := "dropped"
			if !r.higherBetter {
				dir = "rose"
			}
			fmt.Fprintf(w, "benchgate: %s %s %.1f%% (%g in %s -> %g in %s), tolerance %.0f%%\n",
				r.path, dir, -change*100, pv, commit(prev), nv, commit(newest), r.relTol*100)
			bad++
		}
	}
	return bad, nil
}

func main() {
	file := flag.String("f", "BENCH.json", "benchmark history to gate")
	flag.Parse()
	doc, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	bad, err := gate(doc, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) beyond tolerance\n", bad)
		os.Exit(1)
	}
	fmt.Println("benchgate: no regressions beyond tolerance")
}
