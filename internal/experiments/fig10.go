package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// fig10Params sizes Figure 10: how many pods are created at one instant at
// each level, on nodes × fig10GPUsPerNode GPUs.
type fig10Params struct {
	concurrency []int
	nodes       int
}

// The native arm holds one whole GPU per pod, so the quick run's levels stop
// at its 2×4 cluster's 8 GPUs.
var fig10Runs = [...]fig10Params{
	Quick: {concurrency: []int{1, 4, 8}, nodes: 2},
	Full:  {concurrency: []int{1, 2, 4, 8, 16, 32}, nodes: 8},
}

const fig10GPUsPerNode = 4

// Fig10 measures end-to-end pod creation latency (submission → running)
// under increasing concurrency for three paths: native Kubernetes pods,
// KubeShare sharePods onto pre-created vGPUs (no vGPU creation), and
// KubeShare sharePods that must first acquire the GPU (with vGPU
// creation). The paper's shape: ≈+15% without creation, ≈2× with, and the
// KubeShare overhead stays constant as concurrency grows.
func Fig10(s Scale) (*metrics.Table, error) {
	p := fig10Runs[s]
	tb := metrics.NewTable("Figure 10: pod creation latency",
		"concurrent", "native_s", "kubeshare_s", "kubeshare_with_vgpu_s",
		"no_vgpu_overhead", "with_vgpu_overhead")
	// Flatten the concurrency × arm grid; the three arms of a level land at
	// indices 3i, 3i+1, 3i+2.
	arms := []fig10Arm{fig10Native, fig10Warm, fig10Cold}
	lat, err := runIndexed(len(arms)*len(p.concurrency), func(i int) (time.Duration, error) {
		return measureCreation(p.nodes, p.concurrency[i/len(arms)], arms[i%len(arms)])
	})
	if err != nil {
		return nil, err
	}
	for i, n := range p.concurrency {
		native, warm, cold := lat[3*i], lat[3*i+1], lat[3*i+2]
		tb.AddRow(n, native.Seconds(), warm.Seconds(), cold.Seconds(),
			warm.Seconds()/native.Seconds(), cold.Seconds()/native.Seconds())
	}
	return tb, nil
}

// fig10Arm is one of Figure 10's three creation paths.
type fig10Arm string

const (
	fig10Native fig10Arm = "native"              // whole-GPU pods, no KubeShare
	fig10Warm   fig10Arm = "kubeshare"           // sharePods onto pre-created vGPUs
	fig10Cold   fig10Arm = "kubeshare_with_vgpu" // sharePods that first create their vGPU
)

// measureCreation returns the mean submission-to-running latency of n jobs
// created at one instant on one arm, on nodes nodes. The warm arm first runs and deletes a
// generation of sharePods so that, under the reservation policy, their vGPUs
// stay idle in the pool and the measured generation skips GPU acquisition.
func measureCreation(nodes, n int, arm fig10Arm) (time.Duration, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, nodes, fig10GPUsPerNode, false)
	if err != nil {
		return 0, err
	}
	sys := KubeShare
	if arm == fig10Native {
		sys = Kubernetes
	}
	job := func(gen string, i int) api.Object {
		sp := &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("%s%02d", gen, i)},
			Spec: core.SharePodSpec{
				GPURequest: 0.45, GPULimit: 0.5, GPUMem: workload.MemShareSmall,
				Pod: api.PodSpec{Containers: []api.Container{{
					Name: "c", Image: workload.ServeImage,
					Env: map[string]string{workload.EnvRate: "0", workload.EnvDuration: "3600"},
				}}},
			},
		}
		if sys == Kubernetes {
			return wholeGPU(sp)
		}
		return sp
	}
	if sys != Kubernetes {
		policy := core.OnDemand
		if arm == fig10Warm {
			policy = core.Reservation
		}
		if _, err := schedfw.Install(c, core.Config{DevMgr: core.DevMgrConfig{Policy: policy}}); err != nil {
			return 0, err
		}
	}
	var runErr error
	if arm == fig10Warm {
		workload.Submit(env, c.API, n, func(i int) (time.Duration, api.Object) { return 0, job("warm", i) }, &runErr)
		env.At(2*time.Minute, func() {
			for i := 0; i < n && runErr == nil; i++ {
				if err := core.SharePods(c.API).Delete(fmt.Sprintf("warm%02d", i)); err != nil {
					runErr = fmt.Errorf("delete warm%02d: %w", i, err)
				}
			}
		})
		env.RunUntil(5 * time.Minute)
	}
	start := env.Now()
	workload.Submit(env, c.API, n, func(i int) (time.Duration, api.Object) { return start, job("m", i) }, &runErr)
	env.RunUntil(start + 10*time.Minute)
	if runErr != nil {
		return 0, fmt.Errorf("%s: %w", arm, runErr)
	}
	var sum time.Duration
	count := 0
	scanJobs(c, sys, func(_ string, o outcome) {
		// Running: started and not finished (the jobs serve for an hour).
		if o.created >= start && o.start > 0 && !o.terminal {
			sum += o.start - o.created
			count++
		}
	})
	if count != n {
		return 0, fmt.Errorf("%s: %d of %d jobs running", arm, count, n)
	}
	return sum / time.Duration(count), nil
}
