package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds): five repetitions of the longest workload fit.
const runSeconds = 24

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = map[string]string{
	wServingMix:     "Paper's Fig 8/9 shape: 1000 long inference jobs on 8x4 GPUs, ~240 kernel launches each, so devlib/sharing/gpusim/sim do the work and the control plane little",
	wSchedChurn:     "fig16's 10k point, control plane only: 10000 sharePods churn through 128x8 GPUs; schedfw/core do >=80% of the work, devlib/gpusim none; exposes the requeue storm",
	wColdStart:      "5000 short training jobs, ~20 kernels each: the per-sharePod control path, object deep-copies and GC over retained terminal objects dominate; devlib is minor",
	wDurableRestart: "cold_start's shape at 1000 jobs with WAL, 2 s checkpoints and an apiserver crash/replay every 5 s: the store's log, replay and epoch relists beside volatile reads",
}

// manifest renders BENCHMARK.json from the tables in this package, so the
// file and the program cannot drift: `go run ./benchmark -manifest`
// regenerates it and a test compares the two.
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, workload{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // the whys hold ">="
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
