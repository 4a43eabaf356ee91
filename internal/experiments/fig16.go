package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// Fig16Config drives the scheduler scale sweep (a framework extension with
// no paper counterpart): the batched cycle working through 1k → 10k → 100k
// sharePods on a bounded device pool.
//
// Unlike Figure 15's one-shot backlog, the workload here churns: arrivals
// are paced in waves matched to the pool's drain rate, and a completion
// sweeper retires placed sharePods after a fixed service time, so the
// device pool stays at cluster scale while the sharePod count grows by two
// orders of magnitude — the sweep measures the hot path (the device scan
// over the live pool, store traffic, watch fan-out), not an ever-growing
// pool.
//
// Each size reports wall-clock time beside the virtual-side quantities —
// decisions, makespan, and a hash over every placement tuple — which are a
// pure function of the configuration and pinned by TestFig16PlacementsPinned.
type Fig16Config struct {
	// Sizes are the sharePod counts swept (defaults 1k, 10k, 100k).
	Sizes []int
	// Batch is the cycle budget of the batched driver.
	Batch int
	// Nodes and GPUsPerNode bound the device pool.
	Nodes       int
	GPUsPerNode int
}

// fig16Service is how long a placed sharePod holds its slice before the
// completion sweeper retires it.
const fig16Service = 4 * time.Second

func (c Fig16Config) withDefaults() Fig16Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 10000, 100000}
	}
	if c.Batch == 0 {
		c.Batch = 256
	}
	if c.Nodes == 0 {
		c.Nodes = 128
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 8
	}
	return c
}

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
func fig16Run(n int, cfg Fig16Config) (fig16Result, error) {
	env := sim.NewEnv()
	srv := instrumented(apiserver.New(env))
	if err := createNodes(srv, cfg.Nodes, cfg.GPUsPerNode); err != nil {
		return fig16Result{}, fmt.Errorf("fig16: %w", err)
	}

	// Two tenants share a vGPU (0.45 + 0.45), so the pool retires
	// capacity/fig16Service sharePods per unit time at saturation; waves
	// arrive at exactly that rate, keeping the pool saturated and the pending
	// backlog bounded (an unbounded backlog would re-decide every waiting
	// unit each cycle, measuring queue thrash instead of the hot path).
	capacity := 2 * cfg.Nodes * cfg.GPUsPerNode
	waveGap := fig16Service / 8
	wave := capacity / 8
	if wave < 1 {
		wave = 1
	}

	// The first error inside either proc stops both; the run then drains and
	// reports it.
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

	// Completion sweeper: retire placed sharePods fig16Service after
	// scheduling. The status write flows back to the scheduler through its
	// SharePod watch, freeing the slice for the next wave — the churn that
	// keeps the pool bounded.
	done := 0
	env.Go("completer", func(p *sim.Proc) {
		for done < n && runErr == nil {
			p.Sleep(fig16Service / 4)
			cutoff := env.Now() - fig16Service
			var expired []string
			core.SharePods(srv).Scan(func(sp *core.SharePod) bool {
				if sp.Placed() && !sp.Terminated() && sp.Status.ScheduledTime <= cutoff {
					expired = append(expired, sp.Name)
				}
				return true
			})
			for _, name := range expired {
				if _, err := core.SharePods(srv).MutateStatus(name, func(sp *core.SharePod) error {
					sp.Status.Phase = core.SharePodSucceeded
					sp.Status.FinishTime = env.Now()
					return nil
				}); err != nil {
					runErr = fmt.Errorf("complete %s: %w", name, err)
					return
				}
				done++
			}
		}
	})

	sched := schedfw.New(env, srv, schedfw.WithBatchSize(cfg.Batch))
	start := time.Now() //det:allow — the wall column measures real CPU cost, not sim time
	sched.Start()
	env.Run()
	wall := time.Now().Sub(start) //det:allow — as above
	virtual := env.Now()
	sched.Stop()
	if runErr != nil {
		return fig16Result{}, fmt.Errorf("fig16: %w", runErr)
	}

	res := fig16Result{wall: wall, virtual: virtual, decisions: sched.Stats().Decisions}
	res.conflicts = srv.Obs().Counter(schedfw.MetricSchedConflicts).Value()
	// Placement hash: FNV-1a over every (name, gpuid, node, scheduled)
	// tuple in name order.
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	placed := 0
	core.SharePods(srv).Scan(func(sp *core.SharePod) bool {
		if sp.Placed() {
			placed++
			mix(fmt.Sprintf("%s|%s|%s|%d", sp.Name, sp.Spec.GPUID, sp.Spec.NodeName, sp.Status.ScheduledTime))
		}
		return true
	})
	res.hash = h
	if placed != n {
		return fig16Result{}, fmt.Errorf("fig16: %d/%d sharePods placed", placed, n)
	}
	return res, nil
}

// Fig16 sweeps the sharePod count and reports the scheduler's wall-clock
// cost, decisions per sharePod and placement hash at each size.
func Fig16(cfg Fig16Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("Figure 16: scheduler hot-path scaling vs sharePod count",
		"sharepods", "wall_ms", "virtual_makespan_s", "decisions", "decisions_per_sharepod", "conflicts", "placements_hash")
	for _, n := range cfg.Sizes {
		r, err := fig16Run(n, cfg)
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
