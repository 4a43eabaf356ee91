package workload

import (
	"fmt"
	"math"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
)

// Job is one generated cluster job: an inference server with a GPU demand
// (busy fraction) arriving at a point in time.
type Job struct {
	Name    string
	Arrival time.Duration
	// Demand is the job's GPU usage fraction in (0,1] — the knob the
	// paper's workloads vary (Figure 8).
	Demand float64
	// Duration is how long the job serves requests.
	Duration time.Duration
	// Labels: optional locality constraints for the sharePod form.
	Affinity     string
	AntiAffinity string
	Exclusion    string
	// Mode is the sharing strategy the job's sharePod requests ("" = node
	// default; "token", "mps", "replica").
	Mode string
	// MemShare overrides the sharePod's gpu_mem fraction (0 = the
	// MemShareInference default).
	MemShare float64
	// MemBytes switches the sharePod to the absolute memory-request form
	// (gpu_mem_bytes); when set, gpu_mem is left 0.
	MemBytes int64
	// ReqKernelMS overrides the per-request kernel time (0 =
	// DefaultReqKernelMS) — the knob that separates small-kernel from
	// large-kernel mixes in the strategy comparison.
	ReqKernelMS int
	// Seed for the job's internal arrival process.
	Seed int64
}

// GeneratorConfig describes a random workload in the paper's terms.
type GeneratorConfig struct {
	// Jobs is the total number of jobs (fixed per workload, §5.1).
	Jobs int
	// MeanInterArrival is the mean of the Poisson arrival process.
	MeanInterArrival time.Duration
	// DemandMean and DemandVar parameterize the normal GPU-demand
	// distribution. Var is in the paper's axis units (Fig 8c, 0.5–4);
	// the demand stddev is sqrt(Var) × 5 percentage points.
	DemandMean float64
	DemandVar  float64
	// JobDuration is each job's serving time.
	JobDuration time.Duration
	// Mode, MemShare, MemBytes and ReqKernelMS stamp every generated job
	// (see the Job fields) — mode-annotated generators for the strategy
	// mixes.
	Mode        string
	MemShare    float64
	MemBytes    int64
	ReqKernelMS int
	// Seed makes the workload reproducible.
	Seed int64
}

// VarUnit converts the paper's variance axis into a demand stddev.
const VarUnit = 0.05

// Generate produces the job list for a config.
func Generate(cfg GeneratorConfig) []Job {
	rng := simrand.New(cfg.Seed)
	arrivals := rng.Fork("arrivals")
	demands := rng.Fork("demands")
	seeds := rng.Fork("seeds")
	sigma := 0.0
	if cfg.DemandVar > 0 {
		sigma = VarUnit * math.Sqrt(cfg.DemandVar)
	}
	var jobs []Job
	var clock time.Duration
	for i := 0; i < cfg.Jobs; i++ {
		clock += arrivals.ExpDuration(cfg.MeanInterArrival)
		demand := cfg.DemandMean
		if sigma > 0 {
			demand = demands.TruncNormal(cfg.DemandMean, sigma, 0.05, 0.95)
		}
		jobs = append(jobs, Job{
			Name:        fmt.Sprintf("job-%03d", i),
			Arrival:     clock,
			Demand:      demand,
			Duration:    cfg.JobDuration,
			Mode:        cfg.Mode,
			MemShare:    cfg.MemShare,
			MemBytes:    cfg.MemBytes,
			ReqKernelMS: cfg.ReqKernelMS,
			Seed:        int64(seeds.Intn(1 << 30)),
		})
	}
	return jobs
}

// serveEnv builds the container environment realizing a job's demand: the
// request rate is demand divided by the per-request kernel time, so the
// busy fraction stays the demand whatever the kernel granularity.
func serveEnv(j Job) map[string]string {
	kernelMS := j.ReqKernelMS
	if kernelMS <= 0 {
		kernelMS = DefaultReqKernelMS
	}
	kernelSec := float64(kernelMS) / 1000
	rate := j.Demand / kernelSec
	return map[string]string{
		EnvRate:      fmt.Sprintf("%.4f", rate),
		EnvReqKernel: fmt.Sprintf("%d", kernelMS),
		EnvDuration:  fmt.Sprintf("%.3f", j.Duration.Seconds()),
		EnvModelMB:   "512",
		EnvSeed:      fmt.Sprintf("%d", j.Seed),
	}
}

// SharePodFor renders the job as a KubeShare sharePod: gpu_request equals
// the demand (with a little headroom in gpu_limit) and gpu_mem covers the
// model plus working space.
func SharePodFor(j Job) *core.SharePod {
	limit := j.Demand * 1.2
	if limit > 1 {
		limit = 1
	}
	mem := j.MemShare
	if mem == 0 && j.MemBytes == 0 {
		mem = MemShareInference
	}
	return &core.SharePod{
		ObjectMeta: api.ObjectMeta{Name: j.Name},
		Spec: core.SharePodSpec{
			GPURequest:   j.Demand,
			GPULimit:     limit,
			GPUMem:       mem,
			GPUMemBytes:  j.MemBytes,
			SharingMode:  j.Mode,
			Affinity:     j.Affinity,
			AntiAffinity: j.AntiAffinity,
			Exclusion:    j.Exclusion,
			Pod: api.PodSpec{Containers: []api.Container{{
				Name:  "serve",
				Image: ServeImage,
				Env:   serveEnv(j),
			}}},
		},
	}
}

// Submit spawns one proc that creates n objects through srv, in order: for
// each i it takes an (arrival, object) pair from next(i), sleeps until the
// arrival (a past arrival creates at once) and creates the object. next is
// called once per i, in order, inside the proc, so it may draw arrivals from
// a random stream as it goes. The first failed create is stored in *errp as
// "submit <name>: <cause>" and ends the proc; an error another proc stored
// in *errp first ends it too (checked before every create).
func Submit(env *sim.Env, srv *apiserver.Server, n int, next func(i int) (time.Duration, api.Object), errp *error) {
	env.Go("submitter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			at, obj := next(i)
			if wait := at - env.Now(); wait > 0 {
				p.Sleep(wait)
			}
			if *errp != nil {
				return
			}
			if _, err := srv.Create(obj); err != nil {
				*errp = fmt.Errorf("submit %s: %w", obj.GetMeta().Name, err)
				return
			}
		}
	})
}
