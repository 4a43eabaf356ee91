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

// fig13Params sizes Figure 13: the cluster (fig13GPUsPerNode GPUs a node),
// the job count per workload and each job's training length.
type fig13Params struct {
	nodes, jobs, steps int
}

var fig13Runs = [...]fig13Params{
	Quick: {nodes: 1, jobs: 24, steps: 1000},
	Full:  {nodes: 2, jobs: 40, steps: 1500},
}

// Figure 13 sweeps these Job-A fractions, submitting jobs as a Poisson
// process of mean inter-arrival fig13InterArrival.
var fig13Ratios = []float64{0, 0.25, 0.5, 0.75, 1}

const (
	fig13GPUsPerNode  = 4
	fig13InterArrival = 2 * time.Second
)

// fig13Setting selects one of the three compared configurations.
type fig13Setting string

const (
	fig13Kubernetes fig13Setting = "kubernetes"
	fig13NoLabel    fig13Setting = "kubeshare"
	fig13AntiAff    fig13Setting = "kubeshare+anti-affinity"
)

// runFig13Workload runs one mixed A/B workload under one setting and
// returns jobs/min.
func runFig13Workload(p fig13Params, seed int64, ratio float64, setting fig13Setting) (float64, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, p.nodes, fig13GPUsPerNode, false)
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
	rng := simrand.New(seed)
	arrivals := rng.Fork("arrivals")
	kinds := rng.Fork("kinds")
	nA := int(ratio*float64(p.jobs) + 0.5)
	// Deterministic kind sequence: exactly nA Job As, shuffled.
	kindSeq := make([]interferenceProfile, p.jobs)
	for i := range kindSeq {
		if i < nA {
			kindSeq[i] = jobA
		} else {
			kindSeq[i] = jobB
		}
	}
	perm := kinds.Perm(p.jobs)
	var at time.Duration
	var runErr error
	workload.Submit(env, c.API, p.jobs, func(i int) (time.Duration, api.Object) {
		at += arrivals.ExpDuration(fig13InterArrival)
		prof := kindSeq[perm[i]]
		anti := ""
		if setting == fig13AntiAff && prof.kind == "B" {
			anti = "job-b-spread"
		}
		job := interferenceSharePod(fmt.Sprintf("job-%02d-%s", i, prof.kind), prof, p.steps, anti)
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
	if completed != p.jobs {
		return 0, fmt.Errorf("%s ratio %.2f: %d of %d jobs completed", setting, ratio, completed, p.jobs)
	}
	return float64(completed) / last.Minutes(), nil
}

// Fig13 sweeps the Job-A ratio and compares the three settings. The
// paper's crossovers: at ratio 0 KubeShare-without-labels wins despite
// interference; past ratio ≈0.5 the anti-affinity setting is best; at
// ratio 1 both KubeShare settings coincide and beat Kubernetes.
func Fig13(s Scale, seed int64) (*metrics.Table, error) {
	p := fig13Runs[s]
	tb := metrics.NewTable("Figure 13: throughput under interference workloads (jobs/min)",
		"jobA_ratio", "kubernetes", "kubeshare", "kubeshare_anti_affinity")
	settings := []fig13Setting{fig13Kubernetes, fig13NoLabel, fig13AntiAff}
	tputs, err := runIndexed(len(fig13Ratios)*len(settings), func(i int) (float64, error) {
		return runFig13Workload(p, seed, fig13Ratios[i/len(settings)], settings[i%len(settings)])
	})
	if err != nil {
		return nil, err
	}
	for i, ratio := range fig13Ratios {
		row := tputs[i*len(settings) : (i+1)*len(settings)]
		tb.AddRow(ratio, row[0], row[1], row[2])
	}
	return tb, nil
}
