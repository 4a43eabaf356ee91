package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
	"kubeshare/internal/workload"
)

// Fig13Config drives the interference-workload throughput comparison.
type Fig13Config struct {
	Nodes       int
	GPUsPerNode int
	// Jobs is the total job count per workload.
	Jobs int
	// Steps is each job's training length.
	Steps int
	// Ratios are the Job-A fractions to sweep.
	Ratios []float64
	// MeanInterArrival of the Poisson submission process.
	MeanInterArrival time.Duration
	Seed             int64
}

func (c Fig13Config) withDefaults() Fig13Config {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 4
	}
	if c.Jobs == 0 {
		c.Jobs = 40
	}
	if c.Steps == 0 {
		c.Steps = 1500
	}
	if len(c.Ratios) == 0 {
		c.Ratios = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	if c.MeanInterArrival == 0 {
		c.MeanInterArrival = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// fig13Setting selects one of the three compared configurations.
type fig13Setting string

const (
	fig13Kubernetes fig13Setting = "kubernetes"
	fig13NoLabel    fig13Setting = "kubeshare"
	fig13AntiAff    fig13Setting = "kubeshare+anti-affinity"
)

// runFig13Workload runs one mixed A/B workload under one setting and
// returns jobs/min.
func runFig13Workload(cfg Fig13Config, ratio float64, setting fig13Setting) (float64, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, cfg.Nodes, cfg.GPUsPerNode, false)
	if err != nil {
		return 0, err
	}
	sys := Kubernetes
	if setting != fig13Kubernetes {
		sys = KubeShare
		if _, err := schedfw.Install(c, core.Config{}); err != nil {
			return 0, err
		}
	}
	rng := simrand.New(cfg.Seed)
	arrivals := rng.Fork("arrivals")
	kinds := rng.Fork("kinds")
	nA := int(ratio*float64(cfg.Jobs) + 0.5)
	// Deterministic kind sequence: exactly nA Job As, shuffled.
	kindSeq := make([]interferenceProfile, cfg.Jobs)
	for i := range kindSeq {
		if i < nA {
			kindSeq[i] = jobA
		} else {
			kindSeq[i] = jobB
		}
	}
	perm := kinds.Perm(cfg.Jobs)
	var at time.Duration
	var runErr error
	workload.Submit(env, c.API, cfg.Jobs, func(i int) (time.Duration, api.Object) {
		at += arrivals.ExpDuration(cfg.MeanInterArrival)
		prof := kindSeq[perm[i]]
		anti := ""
		if setting == fig13AntiAff && prof.kind == "B" {
			anti = "job-b-spread"
		}
		job := interferenceSharePod(fmt.Sprintf("job-%02d-%s", i, prof.kind), prof, cfg.Steps, anti)
		if sys == Kubernetes {
			return at, wholeGPU(job)
		}
		return at, job
	}, &runErr)
	env.Run()
	if runErr != nil {
		return 0, runErr
	}
	var last time.Duration
	completed := 0
	scanJobs(c, sys, func(_ string, o outcome) {
		if o.succeeded {
			completed++
			last = max(last, o.finish)
		}
	})
	if completed != cfg.Jobs {
		return 0, fmt.Errorf("%s ratio %.2f: %d of %d jobs completed", setting, ratio, completed, cfg.Jobs)
	}
	return float64(completed) / last.Minutes(), nil
}

// Fig13 sweeps the Job-A ratio and compares the three settings. The
// paper's crossovers: at ratio 0 KubeShare-without-labels wins despite
// interference; past ratio ≈0.5 the anti-affinity setting is best; at
// ratio 1 both KubeShare settings coincide and beat Kubernetes.
func Fig13(cfg Fig13Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("Figure 13: throughput under interference workloads (jobs/min)",
		"jobA_ratio", "kubernetes", "kubeshare", "kubeshare_anti_affinity")
	settings := []fig13Setting{fig13Kubernetes, fig13NoLabel, fig13AntiAff}
	tputs, err := runIndexed(len(cfg.Ratios)*len(settings), func(i int) (float64, error) {
		return runFig13Workload(cfg, cfg.Ratios[i/len(settings)], settings[i%len(settings)])
	})
	if err != nil {
		return nil, err
	}
	for i, ratio := range cfg.Ratios {
		row := tputs[i*len(settings) : (i+1)*len(settings)]
		tb.AddRow(ratio, row[0], row[1], row[2])
	}
	return tb, nil
}
