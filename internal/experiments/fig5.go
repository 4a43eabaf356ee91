package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// Fig5Config drives the Figure 5 experiment: the positive correlation
// between a TF-Serving job's GPU usage and its client request rate.
type Fig5Config struct {
	// Rates are the client request rates (req/s) to sweep.
	Rates []float64
	// Duration is the serving window per rate point.
	Duration time.Duration
	Seed     int64
}

// Defaults returns the paper-scale configuration.
func (c Fig5Config) withDefaults() Fig5Config {
	if len(c.Rates) == 0 {
		c.Rates = []float64{2, 4, 8, 12, 16, 20, 24, 32, 40}
	}
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig5 measures GPU utilization (NVML-style) of a single inference server
// under increasing client request rates.
func Fig5(cfg Fig5Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("Figure 5: TF-Serving GPU usage vs client request rate",
		"req_per_s", "gpu_usage")
	utils, err := runIndexed(len(cfg.Rates), func(i int) (float64, error) {
		rate := cfg.Rates[i]
		env := sim.NewEnv()
		c, err := newCluster(env, 1, 1, false)
		if err != nil {
			return 0, err
		}
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "serve"},
			Spec: api.PodSpec{Containers: []api.Container{{
				Name:  "c",
				Image: workload.ServeImage,
				Env: map[string]string{
					workload.EnvRate:     fmt.Sprintf("%.3f", rate),
					workload.EnvDuration: fmt.Sprintf("%.1f", cfg.Duration.Seconds()),
					workload.EnvSeed:     fmt.Sprintf("%d", cfg.Seed),
				},
				Requests: api.ResourceList{api.ResourceGPU: 1},
			}}},
		}
		if _, err := runJobs(env, c, Kubernetes, pod); err != nil {
			return 0, err
		}
		dev := c.Nodes[0].GPUs[0]
		util := dev.BusyTime().Seconds() / cfg.Duration.Seconds()
		if util > 1 {
			util = 1
		}
		return util, nil
	})
	if err != nil {
		return nil, err
	}
	for i, rate := range cfg.Rates {
		tb.AddRow(rate, utils[i])
	}
	return tb, nil
}
