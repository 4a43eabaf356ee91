package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// Fig11Config drives the scheduling-time experiment: how long one
// KubeShare-Sched decision takes as a function of the number of SharePods
// already in the system. Unlike every other experiment this measures *real*
// CPU time (the paper's O(N) claim) of a pool rebuild plus core.Schedule, as
// does BenchmarkFig11SchedulingTime's full-rebuild arm. KubeShare-Sched runs
// neither: it decides through schedfw on its snapshot's persistent pool.
type Fig11Config struct {
	// Counts are the existing-SharePod counts to sweep.
	Counts []int
	// Iterations per point (the decision is fast; average many).
	Iterations int
}

func (c Fig11Config) withDefaults() Fig11Config {
	if len(c.Counts) == 0 {
		c.Counts = []int{10, 25, 50, 75, 100, 200}
	}
	if c.Iterations == 0 {
		c.Iterations = 200
	}
	return c
}

// PopulateSchedulingState fills an API server with n placed sharePods
// spread over enough vGPUs, returning the server (shared with the
// benchmark harness).
func PopulateSchedulingState(n int) (*apiserver.Server, error) {
	srv := instrumented(apiserver.New(sim.NewEnv()))
	nodes := n/8 + 1
	if err := createNodes(srv, nodes, 4); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		sp := &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%04d", i)},
			Spec: core.SharePodSpec{
				GPURequest: 0.2, GPULimit: 0.3, GPUMem: workload.MemShareSmall,
				GPUID: fmt.Sprintf("vgpu-%03d", i%(nodes*4)), NodeName: fmt.Sprintf("node-%04d", i%nodes),
				Pod: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
			},
			Status: core.SharePodStatus{Phase: core.SharePodRunning},
		}
		if _, err := core.SharePods(srv).Create(sp); err != nil {
			return nil, fmt.Errorf("create %s: %w", sp.Name, err)
		}
	}
	return srv, nil
}

// ScheduleOnce performs one full scheduling decision (pool build +
// Algorithm 1) against the populated state — the unit Fig 11 times.
func ScheduleOnce(srv *apiserver.Server) core.Decision {
	serial := 0
	pool := core.BuildPool(srv, func() string {
		serial++
		return fmt.Sprintf("fresh-%d", serial)
	})
	return core.Schedule(core.Request{Util: 0.3, Mem: 0.2}, pool)
}

// PopulateSnapshot folds the server's current state into an incremental
// scheduler snapshot by draining replay watches — the steady-state view
// KubeShare-Sched maintains from deltas instead of rebuilding per decision.
func PopulateSnapshot(srv *apiserver.Server) *core.Snapshot {
	snap := core.NewSnapshot(1)
	for _, kind := range []string{core.KindSharePod, core.KindVGPU, "Pod", "Node"} {
		q := srv.Watch(kind, true)
		for {
			ev, ok := q.TryGet()
			if !ok {
				break
			}
			snap.Apply(ev)
		}
		srv.StopWatch(q)
	}
	return snap
}

// ScheduleOnceIncremental performs one scheduling decision from the
// maintained snapshot (pool materialization + Algorithm 1) — the
// incremental counterpart of ScheduleOnce.
func ScheduleOnceIncremental(snap *core.Snapshot) core.Decision {
	serial := 0
	pool := snap.NewPool(func() string {
		serial++
		return fmt.Sprintf("fresh-%d", serial)
	})
	return core.Schedule(core.Request{Util: 0.3, Mem: 0.2}, pool)
}

// Fig11 sweeps the SharePod count and reports mean decision time. The
// paper's shape: linear in N and comfortably under 400 ms at N=100.
func Fig11(cfg Fig11Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("Figure 11: KubeShare-Sched decision time vs #SharePods",
		"sharepods", "mean_decision_us")
	for _, n := range cfg.Counts {
		srv, err := PopulateSchedulingState(n)
		if err != nil {
			return nil, err
		}
		start := time.Now() //det:allow — this micro-benchmark measures real CPU cost, not sim time
		for i := 0; i < cfg.Iterations; i++ {
			ScheduleOnce(srv)
		}
		elapsed := time.Now().Sub(start) //det:allow — as above
		tb.AddRow(n, float64(elapsed.Microseconds())/float64(cfg.Iterations))
	}
	return tb, nil
}
