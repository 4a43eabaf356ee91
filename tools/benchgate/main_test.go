package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// run.sh's last output line for cold_start at seed 1, untraced and traced,
// cut down to a few of the metrics each reports.
const (
	untracedLine = `{"correct":true,"attempted":15000,"failed":0,"metrics":{"alloc_mb":{"value":98.085,"unit":"MB"},"mallocs_k":{"value":838.582,"unit":"k"},"wall_s":{"value":0.412,"unit":"s"}}}`
	tracedLine   = `{"correct":true,"attempted":30000,"failed":0,"metrics":{"obs.overhead_frac":{"value":0.33,"unit":"frac"},"profile.samples":{"value":489,"unit":"count"},"schedfw.decisions":{"value":5000,"unit":"count"},"sim.steps":{"value":517422,"unit":"count"}}}`
)

func coldStart() map[string]map[string]float64 {
	return map[string]map[string]float64{"cold_start": {
		"alloc_mb": 98.085, "mallocs_k": 838.582, "schedfw.decisions": 5000, "sim.steps": 517422}}
}

// gateLines gates one cold_start run, given as run.sh's two output lines
// (each with a line of progress output above it), against want.
func gateLines(t *testing.T, want map[string]map[string]float64, untraced, traced string) (int, string) {
	t.Helper()
	var rs [2]result
	for i, line := range []string{untraced, traced} {
		var err error
		if rs[i], err = decode([]byte("kubeshare benchmark: commit=abc seed=1\n" + line + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	bad := gate(want, map[string][2]result{"cold_start": rs}, &out)
	return bad, out.String()
}

// TestInjectedRegressionFails: mallocs_k 0.6 % above the file fails and
// prints the measured value (an eager backoff.New per token lease read
// +16 % on serving_mix).
func TestInjectedRegressionFails(t *testing.T) {
	bad, out := gateLines(t, coldStart(), strings.Replace(untracedLine, "838.582", "843.614", 1), tracedLine)
	if bad != 1 || !strings.Contains(out, "cold_start mallocs_k = 843.614") {
		t.Fatalf("%d failures, want 1 naming mallocs_k and its value:\n%s", bad, out)
	}
}

// TestLowerIsBetterRegressionFails: alloc_mb is held to the same band.
func TestLowerIsBetterRegressionFails(t *testing.T) {
	bad, out := gateLines(t, coldStart(), strings.Replace(untracedLine, "98.085", "98.674", 1), tracedLine)
	if bad != 1 || !strings.Contains(out, "cold_start alloc_mb = 98.674") {
		t.Fatalf("%d failures, want 1 naming alloc_mb and its value:\n%s", bad, out)
	}
}

// TestAbsoluteBudget: work.json is an absolute budget, not the last run. A
// value 0.4 % above it passes silently, and so does a wall-clock or
// overhead reading of any size.
func TestAbsoluteBudget(t *testing.T) {
	un := strings.Replace(strings.Replace(untracedLine, "838.582", "841.936", 1), "0.412", "4.12", 1)
	if bad, out := gateLines(t, coldStart(), un, tracedLine); bad != 0 || out != "" {
		t.Fatalf("%d failures, want a silent pass:\n%s", bad, out)
	}
}

// TestImprovementPrintsRatchet: 0.6 % below the file passes and prints the
// value to lower the file to.
func TestImprovementPrintsRatchet(t *testing.T) {
	bad, out := gateLines(t, coldStart(), strings.Replace(untracedLine, "838.582", "833.551", 1), tracedLine)
	if bad != 0 || !strings.Contains(out, "ratchet cold_start mallocs_k to 833.551") {
		t.Fatalf("%d failures, want 0 and a ratchet line:\n%s", bad, out)
	}
}

// TestRequeueStormFails: counts are exact, in either direction. One more
// scheduling decision (the requeue-storm witness) fails and names the
// metric, and so do one fewer step and a count the run no longer reports.
// profile.samples is never held.
func TestRequeueStormFails(t *testing.T) {
	for _, c := range []struct{ traced, want string }{
		{strings.Replace(tracedLine, `5000,`, `5001,`, 1), "cold_start schedfw.decisions = 5001, work.json has 5000"},
		{strings.Replace(tracedLine, `517422,`, `517421,`, 1), "cold_start sim.steps = 517421, work.json has 517422"},
		{strings.Replace(tracedLine, `"sim.steps"`, `"sim.stepz"`, 1), "cold_start sim.steps: not reported by the run"},
		{strings.Replace(tracedLine, `489`, `7`, 1), ""},
	} {
		bad, out := gateLines(t, coldStart(), untracedLine, c.traced)
		if c.want == "" && bad != 0 || c.want != "" && !strings.Contains(out, c.want) {
			t.Errorf("%d failures, want %q:\n%s", bad, c.want, out)
		}
	}
}

// TestIncorrectRunFails: a run whose output checks failed fails the gate,
// whichever stage it was.
func TestIncorrectRunFails(t *testing.T) {
	wrong := func(line string) string { return strings.Replace(line, `"correct":true`, `"correct":false`, 1) }
	for trace, lines := range [][2]string{{wrong(untracedLine), tracedLine}, {untracedLine, wrong(tracedLine)}} {
		if bad, out := gateLines(t, coldStart(), lines[0], lines[1]); bad != 1 || !strings.Contains(out, `"correct": false`) {
			t.Errorf("--trace %d: %d failures, want 1:\n%s", trace, bad, out)
		}
	}
}

// TestMissingWorkloadFails: a workload in the file with no result from the
// run fails.
func TestMissingWorkloadFails(t *testing.T) {
	want := coldStart()
	want["sched_churn"] = map[string]float64{"mallocs_k": 328.5}
	if bad, out := gateLines(t, want, untracedLine, tracedLine); bad != 1 || !strings.Contains(out, "sched_churn: no result") {
		t.Fatalf("%d failures, want 1 naming sched_churn:\n%s", bad, out)
	}
}

// TestCommittedHistoryPasses: the committed work.json holds every workload
// of BENCHMARK.json with both banded metrics and every count metric its
// traced stage reports (the gate holds only what the file lists), and passes
// when a run reads exactly it.
func TestCommittedHistoryPasses(t *testing.T) {
	var want map[string]map[string]float64
	if err := json.Unmarshal(workJSON, &want); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &manifest); err != nil {
		t.Fatal(err)
	}
	held := map[string]int{"alloc_mb": 0, "mallocs_k": 0} // metric -> the --trace run reporting it
	for _, m := range manifest.PerLayer {
		if m.Unit == "count" && m.Name != "profile.samples" {
			held[m.Name] = 1
		}
	}
	got := map[string][2]result{}
	for _, wl := range manifest.Workloads {
		file, ok := want[wl.Name]
		if !ok {
			t.Fatalf("work.json has no %s", wl.Name)
		}
		rs := [2]result{{Correct: true, Metrics: map[string]metric{}}, {Correct: true, Metrics: map[string]metric{}}}
		for name, trace := range held {
			if _, ok := file[name]; !ok {
				t.Errorf("work.json's %s has no %s", wl.Name, name)
			}
			rs[trace].Metrics[name] = metric{file[name], ""}
		}
		if len(file) != len(held) {
			t.Errorf("work.json's %s holds %d metrics, want %d", wl.Name, len(file), len(held))
		}
		got[wl.Name] = rs
	}
	var out strings.Builder
	if bad := gate(want, got, &out); bad != 0 || len(want) != len(manifest.Workloads) {
		t.Fatalf("%d failures, %d workloads in work.json for %d in BENCHMARK.json:\n%s",
			bad, len(want), len(manifest.Workloads), out.String())
	}
}
