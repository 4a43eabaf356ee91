package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// Figure 5 sweeps these client request rates (req/s), serving each for
// fig5Duration; its quick and full runs are the same run.
var fig5Rates = []float64{2, 4, 8, 12, 16, 20, 24, 32, 40}

const fig5Duration = 60 * time.Second

// Fig5 measures GPU utilization (NVML-style) of a single inference server
// under increasing client request rates.
func Fig5(seed int64) (*metrics.Table, error) {
	tb := metrics.NewTable("Figure 5: TF-Serving GPU usage vs client request rate",
		"req_per_s", "gpu_usage")
	utils, err := runIndexed(len(fig5Rates), func(i int) (float64, error) {
		rate := fig5Rates[i]
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
					workload.EnvDuration: fmt.Sprintf("%.1f", fig5Duration.Seconds()),
					workload.EnvSeed:     fmt.Sprintf("%d", seed),
				},
				Requests: api.ResourceList{api.ResourceGPU: 1},
			}}},
		}
		if _, err := runJobs(env, c, Kubernetes, pod); err != nil {
			return 0, err
		}
		dev := c.Nodes[0].GPUs[0]
		util := dev.BusyTime().Seconds() / fig5Duration.Seconds()
		if util > 1 {
			util = 1
		}
		return util, nil
	})
	if err != nil {
		return nil, err
	}
	for i, rate := range fig5Rates {
		tb.AddRow(rate, utils[i])
	}
	return tb, nil
}
