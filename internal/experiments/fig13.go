package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
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
	clusterCfg := kube.Config{}
	for i := 0; i < cfg.Nodes; i++ {
		clusterCfg.Nodes = append(clusterCfg.Nodes, kube.NodeConfig{
			Name: fmt.Sprintf("node-%d", i), GPUs: cfg.GPUsPerNode,
		})
	}
	c, err := kube.NewCluster(env, clusterCfg)
	if err != nil {
		return 0, err
	}
	instrumented(c.API)
	workload.RegisterImages(c)
	if setting != fig13Kubernetes {
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
	env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < cfg.Jobs; i++ {
			p.Sleep(arrivals.ExpDuration(cfg.MeanInterArrival))
			prof := kindSeq[perm[i]]
			name := fmt.Sprintf("job-%02d-%s", i, prof.kind)
			if setting == fig13Kubernetes {
				pod := &api.Pod{
					ObjectMeta: api.ObjectMeta{Name: name},
					Spec: api.PodSpec{Containers: []api.Container{{
						Name:  "train",
						Image: workload.TrainImage,
						Env: map[string]string{
							workload.EnvSteps:        fmt.Sprintf("%d", cfg.Steps),
							workload.EnvStepKernelMS: fmt.Sprintf("%.2f", prof.kernelMS),
							workload.EnvStepHostMS:   fmt.Sprintf("%.2f", prof.hostMS),
						},
						Requests: api.ResourceList{api.ResourceGPU: 1},
					}}},
				}
				if _, err := c.Pods().Create(pod); err != nil {
					panic(err)
				}
				continue
			}
			anti := ""
			if setting == fig13AntiAff && prof.kind == "B" {
				anti = "job-b-spread"
			}
			if _, err := core.SharePods(c.API).Create(
				interferenceSharePod(name, prof, cfg.Steps, anti)); err != nil {
				panic(err)
			}
		}
	})
	env.Run()
	var last time.Duration
	completed := 0
	if setting == fig13Kubernetes {
		for _, pod := range c.Pods().List() {
			if pod.Status.Phase == api.PodSucceeded {
				completed++
				if pod.Status.FinishTime > last {
					last = pod.Status.FinishTime
				}
			}
		}
	} else {
		for _, sp := range core.SharePods(c.API).List() {
			if sp.Status.Phase == core.SharePodSucceeded {
				completed++
				if sp.Status.FinishTime > last {
					last = sp.Status.FinishTime
				}
			}
		}
	}
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
