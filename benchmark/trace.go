package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs/attr"
)

// outDir holds what a traced run leaves behind: span files and CPU profiles.
const outDir = "benchmark/out"

const (
	// profileHz is the requested sampling rate; the kernel tick caps what is
	// delivered (≈250 Hz here), so pass (p) repeats until it has enough.
	profileHz = 1000
	// wantSamples is the least the CPU shares are read from; maxProfileRuns
	// bounds the repeats on a small input.
	wantSamples    = 1000
	maxProfileRuns = 3
)

// The traced stage makes three passes over one workload, each in a fresh
// process for the reason every timed repetition is: (p) the run under the
// CPU profiler, repeated until the samples suffice; (s) the run stepped from
// here with spans around every call into a layer and the registry read at
// the end; (d) the layer drivers. A pass keeps its spans in memory and hands
// them to the parent when it ends.
const (
	passProfile = "p"
	passSpans   = "s"
	passDrivers = "d"
)

// profileCounts are CPU samples by layer: self (leaf-most repo frame) and
// inclusive (layer anywhere on the stack).
type profileCounts struct {
	Total int64            `json:"total"`
	Self  map[string]int64 `json:"self"`
	Incl  map[string]int64 `json:"incl"`
}

func (c *profileCounts) add(o *profileCounts) {
	if c.Self == nil {
		c.Self, c.Incl = map[string]int64{}, map[string]int64{}
	}
	c.Total += o.Total
	for l, n := range o.Self {
		c.Self[l] += n
	}
	for l, n := range o.Incl {
		c.Incl[l] += n
	}
}

// runPass is one traced child.
func runPass(o childOpts) (repResult, error) {
	in, err := generate(o.workload, o.seed, o.scale)
	if err != nil {
		return repResult{}, err
	}
	tr := newTracer(o.workload)
	r := repResult{Metrics: map[string]float64{}, Attempted: len(in.pods)}
	var out outcome
	switch o.pass {
	case passProfile:
		out, err = runProfile(in, tr, &r)
	case passSpans:
		out, err = runSpans(in, tr, r.Metrics)
	case passDrivers:
		r.Attempted = 0 // the drivers submit no sharePods
		runDrivers(in, tr, r.Metrics)
	default:
		err = fmt.Errorf("unknown pass %q", o.pass)
	}
	r.Failed, r.Digest, r.Problems, r.Spans = out.failed, out.digest, out.problems, tr.spans
	return r, err
}

// runProfile runs the workload under runtime/pprof and counts the samples
// by layer. wall_s is the numerator of trace_overhead_frac.
func runProfile(in *input, tr *tracer, r *repResult) (outcome, error) {
	root := tr.open("pass.profile", "benchmark", 0)
	defer tr.close(root)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return outcome{}, err
	}
	w, err := build(in, false, nil)
	if err != nil {
		return outcome{}, err
	}
	// One profile per workload is kept for `go tool pprof`: the last repeat's.
	path := filepath.Join(outDir, "cpu-"+in.spec.name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return outcome{}, err
	}
	// StartCPUProfile always asks for 100 Hz; a rate set beforehand wins (and
	// makes the runtime print one warning line to stderr).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return outcome{}, err
	}
	end := tr.begin("Env.Run", "sim", root)
	start := time.Now()
	w.env.Run()
	r.Metrics["wall_s"] = time.Since(start).Seconds()
	end()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return outcome{}, err
	}
	text, err := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path).Output()
	if err != nil {
		return outcome{}, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	samples, err := parseTraces(bytes.NewReader(text))
	if err != nil {
		return outcome{}, err
	}
	r.Samples = attribute(samples)
	return w.outcome(), nil
}

// runSpans steps the workload from the benchmark, spans around every call it
// makes into a layer, then reads the obs registry and the critical-path
// attribution once.
func runSpans(in *input, tr *tracer, m map[string]float64) (outcome, error) {
	root := tr.open("pass.spans", "benchmark", 0)
	defer tr.close(root)

	end := tr.begin("setup", "benchmark", root)
	w, err := build(in, false, tr)
	end()
	if err != nil {
		return outcome{}, err
	}
	run := tr.open("Env.Step", "sim", root)
	w.parent = run
	steps := w.stepUntilFinished()
	tr.close(run)
	end = tr.begin("Env.Run.drain", "sim", root)
	w.env.Run()
	end()

	out := w.outcome()
	m["sim.steps"] = float64(steps)
	m["sim.ns_per_step"] = float64(tr.spans[run-1].dur()) / float64(max(steps, 1))
	m["virt_start_p50_ms"] = quantile(out.startLat, 0.50)
	m["virt_start_p95_ms"] = quantile(out.startLat, 0.95)

	rt := w.api.Obs()
	snap := rt.Snapshot()
	m["apiserver.create_ns_p50"] = median(tr.durations("SharePods.Create"))
	m["apiserver.writes"] = float64(snap.Counter("kubeshare_apiserver_write_requests_total"))
	m["apiserver.reads"] = float64(snap.Counter("kubeshare_apiserver_read_requests_total"))
	m["apiserver.watches"] = float64(snap.Counter("kubeshare_apiserver_watches_total"))

	m["apiserver.restart_ns_p50"] = median(tr.durations("API.Restart"))
	m["apiserver.relists"] = float64(snap.Counter("kubeshare_apiserver_reflector_relists_total"))
	m["store.wal_records"] = float64(snap.Counter("kubeshare_store_wal_records_total"))
	m["store.checkpoint_bytes"] = float64(snap.Counter("kubeshare_store_checkpoint_ns") / store.DurableIONSPerByte)
	m["store.replayed_records"] = float64(w.replayed)

	decisions := float64(snap.Counter(core.MetricSchedDecisions))
	placed := 0
	var placeLat []float64
	core.SharePods(w.api).Scan(func(sp *core.SharePod) bool {
		if sp.Placed() {
			placed++
			placeLat = append(placeLat, float64(sp.Status.ScheduledTime-sp.CreationTime)/float64(time.Millisecond))
		}
		return true
	})
	m["schedfw.decisions"] = decisions
	m["schedfw.decisions_per_sharepod"] = decisions / float64(max(placed, 1))
	m["schedfw.nocapacity_cycles"] = float64(snap.Counter(core.MetricSchedNoCapacity))
	m["schedfw.batch_conflicts"] = float64(snap.Counter(schedfw.MetricSchedConflicts))
	m["schedfw.filter_runs"] = float64(snap.Counter(schedfw.PhaseMetric(fwk.PhaseFilter)))
	m["schedfw.score_runs"] = float64(snap.Counter(schedfw.PhaseMetric(fwk.PhaseScore)))
	m["schedfw.virt_place_p50_ms"] = quantile(placeLat, 0.50)
	m["schedfw.virt_place_p95_ms"] = quantile(placeLat, 0.95)

	m["core.binds"] = float64(snap.Counter("kubeshare_devmgr_binds_total"))
	m["core.vgpu_creates"] = float64(snap.Counter("kubeshare_devmgr_vgpu_creates_total"))
	m["kubelet.pod_syncs"] = float64(snap.Counter("kubeshare_kubelet_pod_syncs_total"))
	m["scheduler.binds"] = float64(snap.Counter("kubeshare_scheduler_binds_total"))

	m["sharing.admits"] = float64(snap.Counter("kubeshare_sharing_admits_total"))
	m["devlib.token_grants"] = float64(snap.Counter("kubeshare_devlib_token_grants_total"))
	m["devlib.throttle_retries"] = float64(snap.Counter("kubeshare_devlib_throttle_retries_total"))
	wait, _ := snap.Histogram("kubeshare_devlib_token_wait_seconds")
	m["devlib.virt_token_wait_p50_ms"] = wait.Quantile(0.50) * 1e3
	m["devlib.virt_token_wait_p95_ms"] = wait.Quantile(0.95) * 1e3
	m["gpusim.kernel_launches"] = float64(snap.Counter("kubeshare_gpu_kernel_launches_total"))

	spans := rt.Tracer().Spans()
	phases := phaseMeans(attr.Analyze(spans))
	for _, ph := range attr.Phases {
		m["attr."+string(ph)+"_ms"] = phases[ph]
	}
	m["obs.spans"] = float64(len(spans))
	m["obs.events"] = float64(len(rt.Events()))
	m["obs.spans_dropped"] = float64(rt.Tracer().Dropped())
	return out, nil
}

// phaseMeans is the virtual mean per attribution phase over the completed
// chains, in ms; all zero where no chain reaches a kernel launch.
func phaseMeans(res attr.Result) map[attr.Phase]float64 {
	means := map[attr.Phase]float64{}
	for _, bd := range res.Breakdowns {
		for ph, d := range bd.Phases {
			means[ph] += float64(d) / float64(time.Millisecond)
		}
	}
	for ph := range means {
		means[ph] /= float64(len(res.Breakdowns))
	}
	return means
}
