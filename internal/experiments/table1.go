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

// Table 1's placement scenarios run on one node of table1GPUs GPUs; the
// first submits Fig 3's containers A–F with these gpu_requests, in order.
// Its quick and full runs are the same run.
var table1Demands = []float64{0.5, 0.5, 0.5, 0.4, 0.3, 0.3}

const table1GPUs = 4

// placementStats summarizes one scheduler's placement.
type placementStats struct {
	perDevice     map[string]float64
	overcommitted int
	activeDevices int
	pendingJobs   int
}

// table1System selects the scheduler flavour under test.
type table1System int

const (
	table1KubeShare table1System = iota
	table1Extender
	table1Deepomatic
)

func runPlacement(demands []float64, sys table1System) (placementStats, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, 1, table1GPUs, false)
	if err != nil {
		return placementStats{}, err
	}
	switch sys {
	case table1KubeShare:
		if _, err := schedfw.Install(c, core.Config{}); err != nil {
			return placementStats{}, err
		}
	default:
		_, ext, err := schedfw.InstallExtender(c, core.Config{})
		if err != nil {
			return placementStats{}, err
		}
		ext.SetSingleDevice(sys == table1Deepomatic)
	}
	// Sequential arrivals 100 ms apart, as in Fig 3's scenario.
	var runErr error
	workload.Submit(env, c.API, len(demands), func(i int) (time.Duration, api.Object) {
		d := demands[i]
		return time.Duration(i) * 100 * time.Millisecond, &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("ctr-%c", 'a'+i)},
			Spec: core.SharePodSpec{
				GPURequest: d, GPULimit: d, GPUMem: workload.MemShareInference,
				Pod: api.PodSpec{Containers: []api.Container{{
					Name: "c", Image: workload.ServeImage,
					Env: map[string]string{workload.EnvRate: "0", workload.EnvDuration: "3600"},
				}}},
			},
		}
	}, &runErr)
	env.RunUntil(2 * time.Minute)
	if runErr != nil {
		return placementStats{}, runErr
	}
	stats := placementStats{perDevice: map[string]float64{}}
	for _, sp := range core.SharePods(c.API).List() {
		if !sp.Placed() {
			stats.pendingJobs++
			continue
		}
		stats.perDevice[sp.Spec.GPUID] += sp.Spec.GPURequest
	}
	for _, load := range stats.perDevice {
		stats.activeDevices++
		if load > 1+1e-9 {
			stats.overcommitted++
		}
	}
	return stats, nil
}

// Table1 quantifies the first-class-scheduling rows of Table 1 by running
// two Figure 3-style placement scenarios under both schedulers. KubeShare
// never over-commits a device and activates the minimum number of GPUs
// (queueing the overflow instead); the extender baseline spreads jobs
// round-robin, activating every GPU and over-committing under contention.
func Table1() (*metrics.Table, error) {
	tb := metrics.NewTable("Table 1 / Figure 3: fragmentation under single-device, round-robin and locality-aware scheduling",
		"scenario", "metric", "deepomatic", "extender_rr", "kubeshare")
	scenarios := []struct {
		name    string
		demands []float64
	}{
		{"mixed demands (Fig 3)", table1Demands},
		{"contending 0.6s", []float64{0.6, 0.6, 0.6, 0.6, 0.6, 0.6}},
	}
	systems := []table1System{table1Deepomatic, table1Extender, table1KubeShare}
	stats, err := runIndexed(len(scenarios)*len(systems), func(i int) (placementStats, error) {
		return runPlacement(scenarios[i/len(systems)].demands, systems[i%len(systems)])
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		deep, ext, ks := stats[3*i], stats[3*i+1], stats[3*i+2]
		tb.AddRow(sc.name, "active GPUs", deep.activeDevices, ext.activeDevices, ks.activeDevices)
		tb.AddRow(sc.name, "over-committed GPUs", deep.overcommitted, ext.overcommitted, ks.overcommitted)
		tb.AddRow(sc.name, "queued jobs", deep.pendingJobs, ext.pendingJobs, ks.pendingJobs)
	}
	return tb, nil
}
