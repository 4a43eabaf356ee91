package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// repResult is what one child process reports: the end-to-end metrics of
// one run, or a traced pass's per-layer metrics, samples and spans.
type repResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"`
	Samples   *profileCounts     `json:"samples,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// childOpts are the flags a parent passes a child.
type childOpts struct {
	workload   string
	seed       uint64
	scale      float64
	disableObs bool
	pass       string // "" for a timed repetition, else the traced pass to make
}

const mb = 1 << 20

// runUntraced is one timed repetition: set-up, Env.Run to quiescence, the
// memory readings, then the output checks. start is the child's first
// instant.
func runUntraced(o childOpts, start time.Time) (repResult, error) {
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	in, err := generate(o.workload, o.seed, o.scale)
	if err != nil {
		return repResult{}, err
	}
	w, err := build(in, o.disableObs, nil)
	if err != nil {
		return repResult{}, err
	}
	setup := time.Since(start)
	runStart := time.Now()
	w.env.Run()
	wall := time.Since(runStart)
	runtime.ReadMemStats(&m1)
	// Twice: one collection only moves sync.Pool contents (encoding/json's
	// checkpoint-sized buffers) to the victim cache, and whether a background
	// cycle had already done so made live_heap_mb read one of two values.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	out := w.outcome()
	runtime.KeepAlive(w) // live_heap_mb is read with the cluster still referenced
	return repResult{
		Metrics: map[string]float64{
			"setup_s":            setup.Seconds(),
			"wall_s":             wall.Seconds(),
			"alloc_mb":           float64(m1.TotalAlloc-m0.TotalAlloc) / mb,
			"mallocs_k":          float64(m1.Mallocs-m0.Mallocs) / 1e3,
			"live_heap_mb":       float64(m2.HeapAlloc) / mb,
			"virt_makespan_s":    out.makespan.Seconds(),
			"virt_start_mean_ms": mean(out.startLat),
			"virt_start_p50_ms":  quantile(out.startLat, 0.50),
			"virt_start_p95_ms":  quantile(out.startLat, 0.95),
		},
		Attempted: len(in.pods), Failed: out.failed,
		Digest: out.digest, Problems: out.problems,
	}, nil
}

// childProcs is the thread budget of every child: one simulation thread plus
// the collector, never more than the machine has.
func childProcs() int { return min(2, runtime.NumCPU()) }

// spawn runs one fresh child process of this binary and decodes its result.
// Fresh processes are required: a finished cluster stays reachable from its
// parked proc coroutines, so in-process repetitions slow down (README).
func spawn(o childOpts) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	args := []string{"-child", "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-pass", o.pass}
	if o.disableObs {
		args = append(args, "-disable-obs")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	data, err := cmd.Output() // waits for the child to end
	if err != nil {
		return repResult{}, fmt.Errorf("%s child: %w", o.workload, err)
	}
	var r repResult
	if err := json.Unmarshal(data, &r); err != nil {
		return repResult{}, fmt.Errorf("%s child: bad result %q: %w", o.workload, data, err)
	}
	return r, nil
}
