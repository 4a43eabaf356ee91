// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated cluster. Each experiment is a pure
// function from a config (with paper-scale defaults) to a metrics.Table
// holding the rows/series the paper reports; the cmd/kubeshare-sim binary
// and the repository benchmarks are thin wrappers around these functions.
package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/obs"
	"kubeshare/internal/obs/attr"
	"kubeshare/internal/obs/tsdb"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// System selects the resource management stack under test.
type System string

// Systems under comparison.
const (
	// Kubernetes is the native baseline: one whole GPU per job.
	Kubernetes System = "kubernetes"
	// KubeShare is the paper's system.
	KubeShare System = "kubeshare"
	// Extender is the scheduler-extender baseline (Aliyun-style).
	Extender System = "extender"
)

// onServer, when the package's tests set it, sees every API server an
// experiment builds before anything runs against it (they install the
// store's mutation canary). Nil in production.
var onServer func(*apiserver.Server)

func instrumented(srv *apiserver.Server) *apiserver.Server {
	if onServer != nil {
		onServer(srv)
	}
	return srv
}

// newCluster builds a cluster with workload images registered.
func newCluster(env *sim.Env, nodes, gpusPerNode int) (*kube.Cluster, error) {
	return newClusterObs(env, nodes, gpusPerNode, false)
}

// newClusterObs is newCluster with an observability off-switch (the obs-off
// arm of the instrumentation-overhead benchmark).
func newClusterObs(env *sim.Env, nodes, gpusPerNode int, disableObs bool) (*kube.Cluster, error) {
	cfg := kube.Config{DisableObs: disableObs}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, kube.NodeConfig{
			Name: fmt.Sprintf("node-%d", i),
			GPUs: gpusPerNode,
		})
	}
	c, err := kube.NewCluster(env, cfg)
	if err != nil {
		return nil, err
	}
	instrumented(c.API)
	workload.RegisterImages(c)
	return c, nil
}

// SharingConfig drives one cluster-scale inference workload run (the
// machinery behind Figures 8, 9 and 13).
type SharingConfig struct {
	System      System
	Nodes       int
	GPUsPerNode int
	Jobs        []workload.Job
	// Sample enables utilization/active-GPU sampling at this interval
	// (zero disables sampling — Figures 8/13 need only throughput).
	Sample time.Duration
	// Devlib overrides the device library configuration (zero = defaults).
	Devlib core.Config
	// DisableObs turns the telemetry runtime off for this run (the obs-off
	// arm of the instrumentation-overhead benchmark).
	DisableObs bool
	// ExportTelemetry copies the run's metrics snapshot, span trace and
	// event log into the result (they are dropped otherwise, so bulk
	// sweeps do not retain every run's trace).
	ExportTelemetry bool
	// Telemetry, when nonzero, attaches the consumption layer (TSDB
	// collector, fairness auditor, SLO alert engine) sampling at this
	// interval; the result's Telemetry field carries it.
	Telemetry time.Duration
	// RestartAPIServerAt, when nonzero, enables store durability (WAL +
	// checkpoints) and crash/warm-recovers the apiserver once at this
	// virtual time — the mid-run control-plane restart whose markers and
	// relist counters must land deterministically in the trace.
	RestartAPIServerAt time.Duration
	// Attribution turns on critical-path latency attribution: histogram
	// exemplars are enabled on the run's registry, and after the run the
	// span trace is analyzed into per-sharePod phase breakdowns (the
	// result's Attr field), with open (never-launched) chains counted in
	// the kubeshare_obs_open_chains gauge before the snapshot is taken.
	// Implies ExportTelemetry.
	Attribution bool
}

// SharingResult is the outcome of one run.
type SharingResult struct {
	Completed int
	Failed    int
	// Makespan is the time from the first submission to the last
	// completion.
	Makespan time.Duration
	// ThroughputPerMin is Completed divided by the makespan in minutes.
	ThroughputPerMin float64
	// Util is the cluster-average GPU utilization over time (sampled).
	Util *tsdb.Series
	// ActiveGPUs is the number of allocated GPUs over time (sampled).
	ActiveGPUs *tsdb.Series
	// Obs, Spans and Events carry the run's telemetry when
	// SharingConfig.ExportTelemetry was set.
	Obs    obs.MetricsSnapshot
	Spans  []obs.Span
	Events []obs.EventRecord
	// Telemetry is the attached consumption layer (TSDB, auditor, alerts)
	// when SharingConfig.Telemetry was nonzero.
	Telemetry *TelemetrySet
	// FinishTimes maps each completed job's name to its finish time, for
	// per-job slowdown metrics (the fig18 stretch column).
	FinishTimes map[string]time.Duration
	// Attr is the critical-path analysis of the run's span trace when
	// SharingConfig.Attribution was set.
	Attr attr.Result
}

// RunSharing executes a full workload run under the chosen system and
// returns its throughput and utilization profile.
func RunSharing(cfg SharingConfig) (SharingResult, error) {
	env := sim.NewEnv()
	c, err := newClusterObs(env, cfg.Nodes, cfg.GPUsPerNode, cfg.DisableObs)
	if err != nil {
		return SharingResult{}, err
	}
	// The first error inside a proc stops the submitter and the samplers;
	// what is already running drains and the run reports the error.
	var runErr error
	if cfg.Attribution {
		// Exemplars go on before any observation, so the max-latency trace
		// keys cover the whole run.
		c.Obs.EnableExemplars()
	}
	if cfg.RestartAPIServerAt > 0 {
		// Durability goes on before any consumer subscribes, so the whole
		// run is covered by the enable-time checkpoint plus the WAL.
		c.API.EnableDurability(apiserver.DurabilityConfig{})
		env.Go("apiserver-restarter", func(p *sim.Proc) {
			p.Sleep(cfg.RestartAPIServerAt)
			if _, err := c.API.Restart(); err != nil && runErr == nil {
				runErr = fmt.Errorf("experiments: apiserver restart: %w", err)
			}
		})
	}
	switch cfg.System {
	case KubeShare:
		if _, err := schedfw.Install(c, cfg.Devlib); err != nil {
			return SharingResult{}, err
		}
	case Extender:
		if _, _, err := schedfw.InstallExtender(c, cfg.Devlib); err != nil {
			return SharingResult{}, err
		}
	}

	// Submit jobs at their arrival times.
	env.Go("submitter", func(p *sim.Proc) {
		for _, j := range cfg.Jobs {
			if wait := j.Arrival - env.Now(); wait > 0 {
				p.Sleep(wait)
			}
			if runErr != nil {
				return
			}
			var err error
			if cfg.System == Kubernetes {
				_, err = c.Pods().Create(workload.NativePodFor(j))
			} else {
				_, err = core.SharePods(c.API).Create(workload.SharePodFor(j))
			}
			if err != nil {
				runErr = fmt.Errorf("experiments: submit %s: %w", j.Name, err)
				return
			}
		}
	})

	res := SharingResult{}
	total := len(cfg.Jobs)
	finished := func() bool { return runErr != nil || terminatedCount(c, cfg.System) >= total }
	if cfg.Telemetry > 0 {
		res.Telemetry = attachTelemetry(env, c, cfg.Telemetry, finished)
	}
	if cfg.Sample > 0 {
		res.Util = &tsdb.Series{Name: "util"}
		res.ActiveGPUs = &tsdb.Series{Name: "active"}
		gpus := c.AllGPUs()
		prev := make([]time.Duration, len(gpus))
		env.Go("cluster-sampler", func(p *sim.Proc) {
			for {
				p.Sleep(cfg.Sample)
				busySum := 0.0
				for i, d := range gpus {
					busy := d.BusyTime()
					busySum += float64(busy-prev[i]) / float64(cfg.Sample)
					prev[i] = busy
				}
				res.Util.Add(env.Now(), busySum/float64(len(gpus)))
				res.ActiveGPUs.Add(env.Now(), float64(allocatedGPUs(c, cfg.System)))
				// Self-terminate once the whole workload has finished, so
				// the periodic wakeups do not keep the simulation alive.
				if finished() {
					return
				}
			}
		})
	}
	env.Run()
	if runErr != nil {
		return SharingResult{}, runErr
	}

	// Collect outcomes.
	var last time.Duration
	res.FinishTimes = make(map[string]time.Duration)
	if cfg.System == Kubernetes {
		for _, pod := range c.Pods().List() {
			switch pod.Status.Phase {
			case api.PodSucceeded:
				res.Completed++
				res.FinishTimes[pod.Name] = pod.Status.FinishTime
				if pod.Status.FinishTime > last {
					last = pod.Status.FinishTime
				}
			case api.PodFailed:
				res.Failed++
			}
		}
	} else {
		for _, sp := range core.SharePods(c.API).List() {
			switch sp.Status.Phase {
			case core.SharePodSucceeded:
				res.Completed++
				res.FinishTimes[sp.Name] = sp.Status.FinishTime
				if sp.Status.FinishTime > last {
					last = sp.Status.FinishTime
				}
			default:
				if sp.Terminated() {
					res.Failed++
				}
			}
		}
	}
	// Nothing is left to run: a job that is not terminal now never will be
	// (a control loop died or deadlocked), and a short result with a nil
	// error would hide it.
	if stuck := total - res.Completed - res.Failed; stuck > 0 {
		return SharingResult{}, fmt.Errorf("experiments: the simulation drained with %d of %d jobs not terminal", stuck, total)
	}
	res.Makespan = last
	if last > 0 {
		res.ThroughputPerMin = float64(res.Completed) / last.Minutes()
	}
	if cfg.Attribution {
		// Analyze before the snapshot so the open-chain gauge — registered
		// lazily, only on attribution runs — lands in the exported metrics.
		res.Attr = attr.Analyze(c.Obs.Tracer().Spans())
		c.Obs.Gauge("kubeshare_obs_open_chains").Set(int64(len(res.Attr.Open)))
	}
	if cfg.ExportTelemetry || cfg.Attribution {
		res.Obs = c.Obs.Snapshot()
		res.Spans = c.Obs.Tracer().Spans()
		res.Events = c.Obs.Events()
	}
	return res, nil
}

// terminatedCount counts workload jobs in a terminal phase. It runs once per
// sample tick, so it scans the store in place instead of building the slice
// List would.
func terminatedCount(c *kube.Cluster, sys System) int {
	n := 0
	if sys == Kubernetes {
		c.Pods().Scan(func(pod *api.Pod) bool {
			if pod.Terminated() {
				n++
			}
			return true
		})
		return n
	}
	core.SharePods(c.API).Scan(func(sp *core.SharePod) bool {
		if sp.Terminated() {
			n++
		}
		return true
	})
	return n
}

// allocatedGPUs counts GPUs currently held: whole devices granted to
// running native pods, plus pool vGPUs for the sharing systems.
func allocatedGPUs(c *kube.Cluster, sys System) int {
	n := 0
	if sys == Kubernetes {
		c.Pods().Scan(func(pod *api.Pod) bool {
			if !pod.Terminated() && pod.Spec.NodeName != "" {
				for _, ct := range pod.Spec.Containers {
					n += int(ct.Requests[api.ResourceGPU])
				}
			}
			return true
		})
		return n
	}
	return core.VGPUs(c.API).Count()
}
