package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// fig16Params sizes the scheduler scale sweep (a framework extension with
// no paper counterpart): the batched cycle working through 1k → 10k → 100k
// sharePods on a bounded device pool.
//
// Unlike Figure 15's one-shot backlog, the workload here churns: arrivals
// are paced in waves just under the pool's drain rate, and each sharePod is
// retired a fixed service time after its placement, so the device pool and
// the pending backlog stay at cluster scale while the sharePod count grows
// by two orders of magnitude — the sweep measures the hot path (the device
// scan over the live pool, store traffic, watch fan-out), not an
// ever-growing pool or queue.
//
// Each size reports wall-clock time beside the virtual-side quantities —
// decisions, makespan, and a hash over every placement tuple — which are a
// pure function of the scale and pinned by TestFig16PlacementsPinned.
type fig16Params struct {
	// sizes are the sharePod counts swept.
	sizes []int
	// nodes × fig16GPUsPerNode GPUs bound the device pool.
	nodes int
}

var fig16Runs = [...]fig16Params{
	Quick: {sizes: []int{500, 2000}, nodes: 16},
	Full:  {sizes: []int{1000, 10000, 100000}, nodes: 128},
}

// The batched driver's cycle budget, and each node's GPUs.
const (
	fig16Batch       = 256
	fig16GPUsPerNode = 8
)

// fig16Service is how long a placed sharePod holds its slice before it is
// retired.
const fig16Service = 4 * time.Second

// fig16Result is one run's outcome: the wall-side measurement plus the
// virtual-side quantities.
type fig16Result struct {
	wall      time.Duration
	virtual   time.Duration
	decisions int64
	conflicts int64
	hash      uint64
}

// fig16Run schedules n sharePods to completion.
func fig16Run(n, nodes int) (fig16Result, error) {
	env := sim.NewEnv()
	srv := instrumented(apiserver.New(env))
	if err := createNodes(srv, nodes, fig16GPUsPerNode); err != nil {
		return fig16Result{}, fmt.Errorf("fig16: %w", err)
	}

	// Two tenants share a vGPU (0.45 + 0.45): capacity slots, each held
	// exactly fig16Service and placed again no sooner than one cycle's
	// core.CycleLatency later. Waves of capacity/8 every fig16Service/8 +
	// CycleLatency arrive strictly slower than that drain, so the backlog
	// stays within one wave at every size; at fig16Service/8 the lag would
	// compound every generation and the backlog grow with N.
	capacity := 2 * nodes * fig16GPUsPerNode
	waveGap := fig16Service/8 + core.CycleLatency
	wave := capacity / 8

	// The first error inside the submitter or a retirement stops the run;
	// it then drains and reports it.
	var runErr error
	workload.Submit(env, srv, n, func(i int) (time.Duration, api.Object) {
		return time.Duration(i/wave) * waveGap, &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%06d", i)},
			Spec: core.SharePodSpec{
				GPURequest: 0.45, GPULimit: 1.0, GPUMem: workload.MemShareChurn,
				Pod: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
			},
		}
	}, &runErr)

	// Retirement: the event that shows a sharePod placed arms a timer that
	// writes it Succeeded fig16Service after scheduling. The status write
	// flows back to the scheduler through its SharePod watch, freeing the
	// slice for the next wave — the churn that keeps the pool bounded.
	retirer := srv.Inform("fig16", "retirer", core.KindSharePod, apiserver.WatchOptions{}, func(_ *sim.Proc, ev store.Event) {
		sp := ev.Object.(*core.SharePod)
		if !sp.Placed() || sp.Terminated() {
			return
		}
		env.At(sp.Status.ScheduledTime+fig16Service, func() {
			if _, err := core.SharePods(srv).MutateStatus(sp.Name, func(cur *core.SharePod) error {
				cur.Status.Phase = core.SharePodSucceeded
				cur.Status.FinishTime = env.Now()
				return nil
			}); err != nil && runErr == nil {
				runErr = fmt.Errorf("complete %s: %w", sp.Name, err)
			}
		})
	})

	sched := schedfw.New(env, srv, schedfw.WithBatchSize(fig16Batch))
	start := time.Now() //det:allow — the wall column measures real CPU cost, not sim time
	sched.Start()
	env.Run()
	wall := time.Now().Sub(start) //det:allow — as above
	virtual := env.Now()
	sched.Stop()
	retirer.Stop()
	if runErr != nil {
		return fig16Result{}, fmt.Errorf("fig16: %w", runErr)
	}

	res := fig16Result{wall: wall, virtual: virtual, decisions: sched.Stats().Decisions}
	res.conflicts = srv.Obs().Counter(schedfw.MetricSchedConflicts).Value()
	// Placement hash: FNV-1a over every (name, gpuid, node, scheduled)
	// tuple in name order.
	h := fnv.New64a()
	placed := 0
	core.SharePods(srv).Scan(func(sp *core.SharePod) bool {
		if sp.Placed() {
			placed++
			fmt.Fprintf(h, "%s|%s|%s|%d", sp.Name, sp.Spec.GPUID, sp.Spec.NodeName, sp.Status.ScheduledTime)
		}
		return true
	})
	res.hash = h.Sum64()
	if placed != n {
		return fig16Result{}, fmt.Errorf("fig16: %d/%d sharePods placed", placed, n)
	}
	return res, nil
}

// Fig16 sweeps the sharePod count and reports the scheduler's wall-clock
// cost, decisions per sharePod and placement hash at each size.
func Fig16(s Scale) (*metrics.Table, error) {
	p := fig16Runs[s]
	tb := metrics.NewTable("Figure 16: scheduler hot-path scaling vs sharePod count",
		"sharepods", "wall_ms", "virtual_makespan_s", "decisions", "decisions_per_sharepod", "conflicts", "placements_hash")
	for _, n := range p.sizes {
		r, err := fig16Run(n, p.nodes)
		if err != nil {
			return nil, err
		}
		tb.AddRow(n, r.wall.Milliseconds(),
			fmt.Sprintf("%.1f", r.virtual.Seconds()), r.decisions,
			fmt.Sprintf("%.3f", float64(r.decisions)/float64(n)), r.conflicts,
			fmt.Sprintf("%016x", r.hash))
	}
	return tb, nil
}
