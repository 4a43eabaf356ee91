package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/devlib"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// Figure 7 sweeps these token quotas (the paper's 30–160 ms), training for
// fig7Steps steps per run.
var fig7Quotas = []time.Duration{
	30 * time.Millisecond, 50 * time.Millisecond, 80 * time.Millisecond,
	100 * time.Millisecond, 130 * time.Millisecond, 160 * time.Millisecond,
}

var fig7Steps = [...]int{Quick: 2000, Full: 3000}

// Fig7 measures training throughput under varied token quotas, normalized
// to the same job run without the device library (native pod). The paper's
// result: ≤5% slowdown even at a 30 ms quota.
func Fig7(s Scale) (*metrics.Table, error) {
	steps := fig7Steps[s]

	// runTraining times one training job: a whole-GPU pod without the device
	// library, or a full-GPU sharePod under the given token quota.
	runTraining := func(quota time.Duration, useLib bool) (time.Duration, error) {
		env := sim.NewEnv()
		c, err := newCluster(env, 1, 1, false)
		if err != nil {
			return 0, err
		}
		sp := &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: "train"},
			Spec: core.SharePodSpec{
				GPURequest: 1.0, GPULimit: 1.0, GPUMem: workload.MemShareHalf,
				Pod: api.PodSpec{Containers: []api.Container{{
					Name: "c", Image: workload.TrainImage,
					Env: map[string]string{workload.EnvSteps: fmt.Sprintf("%d", steps)},
				}}},
			},
		}
		sys, job := Kubernetes, api.Object(wholeGPU(sp))
		if useLib {
			sys, job = KubeShare, sp
			if _, err := schedfw.Install(c, core.Config{Devlib: devlib.Config{Quota: quota}}); err != nil {
				return 0, err
			}
		}
		times, err := runJobs(env, c, sys, job)
		return times["train"], err
	}

	// Index 0 is the no-library baseline; 1..len(fig7Quotas) are the quota runs.
	// Every run is its own Env, so all points fan out together.
	walls, err := runIndexed(len(fig7Quotas)+1, func(i int) (time.Duration, error) {
		if i == 0 {
			return runTraining(0, false)
		}
		return runTraining(fig7Quotas[i-1], true)
	})
	if err != nil {
		return nil, err
	}
	baseTput := float64(steps*workload.DefaultBatch) / walls[0].Seconds()
	tb := metrics.NewTable("Figure 7: training throughput vs token quota (normalized to no device library)",
		"quota_ms", "images_per_s", "normalized")
	for i, quota := range fig7Quotas {
		tput := float64(steps*workload.DefaultBatch) / walls[i+1].Seconds()
		tb.AddRow(int(quota.Milliseconds()), tput, tput/baseTput)
	}
	return tb, nil
}
