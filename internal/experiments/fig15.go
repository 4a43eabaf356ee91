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

// Fig15Config drives the scheduler-throughput experiment (a framework
// extension with no paper counterpart): sustained scheduling decisions per
// second of KubeShare-Sched on the plugin-phase framework, swept over the
// pending-queue depth for three driver modes:
//
//   - single  — batch size 1, the legacy one-decision-per-cycle loop;
//   - batched — one cycle drains up to Batch decisions against the cycle
//     transaction and commits them in bulk, amortizing the per-cycle
//     latency (and, in real time, the snapshot materialization and the
//     age sort) over the whole batch;
//   - gang    — the batched driver with the workload arranged into
//     all-or-nothing gangs of Gang members, measuring the overhead of
//     gang gathering and checkpoint/rollback on the same cycle budget.
//
// Two quantities per point: virtual decisions/sec (simulated time — the
// quantity the cycle-latency model bounds at 1/CycleLatency for the single
// driver and Batch/CycleLatency for the batched ones) and real CPU
// microseconds per decision (wall time of the whole run divided by
// placements, the implementation cost that Figure 11 measures for one
// decision in isolation).
type Fig15Config struct {
	// Counts are the pending-SharePod queue depths to sweep.
	Counts []int
	// Batch is the cycle budget of the batched and gang modes.
	Batch int
	// Gang is the gang size of the gang mode (Counts must divide by it).
	Gang int
}

func (c Fig15Config) withDefaults() Fig15Config {
	if len(c.Counts) == 0 {
		c.Counts = []int{1000, 10000}
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.Gang == 0 {
		c.Gang = 4
	}
	return c
}

// fig15Run schedules n pending sharePods to completion under one driver
// mode and returns (virtual elapsed, real elapsed, decision count).
func fig15Run(n, batch, gangSize int) (time.Duration, time.Duration, int64, error) {
	env := sim.NewEnv()
	srv := instrumented(apiserver.New(env))
	// Each sharePod asks for half a GPU, so two share a vGPU: n pods fill
	// n/8 4-GPU nodes exactly, and every decision exercises the full
	// filter→score path over a growing pool.
	if err := createNodes(srv, (n+7)/8, 4); err != nil {
		return 0, 0, 0, err
	}
	for i := 0; i < n; i++ {
		sp := &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%05d", i)},
			Spec: core.SharePodSpec{
				GPURequest: 0.5, GPULimit: 1.0, GPUMem: workload.MemShareHalf,
				Pod: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
			},
		}
		if gangSize > 1 {
			sp.Spec.Gang = fmt.Sprintf("gang-%05d", i/gangSize)
			sp.Spec.GangSize = gangSize
		}
		if _, err := core.SharePods(srv).Create(sp); err != nil {
			return 0, 0, 0, fmt.Errorf("create %s: %w", sp.Name, err)
		}
	}
	sched := schedfw.New(env, srv, schedfw.WithBatchSize(batch))
	start := time.Now() //det:allow — the µs/decision column measures real CPU cost, not sim time
	sched.Start()
	env.Run()
	real := time.Now().Sub(start) //det:allow — as above
	virtual := env.Now()
	sched.Stop()
	placed := 0
	for _, sp := range core.SharePods(srv).List() {
		if sp.Placed() {
			placed++
		}
	}
	if placed != n {
		return 0, 0, 0, fmt.Errorf("%d/%d sharePods placed (batch=%d gang=%d)", placed, n, batch, gangSize)
	}
	return virtual, real, sched.Stats().Decisions, nil
}

// Fig15 sweeps queue depth × driver mode and reports throughput. The
// batched driver's virtual decisions/sec exceeds the single driver's by
// roughly the batch factor (the acceptance bar is 3x at the 10k point).
func Fig15(cfg Fig15Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("Figure 15: scheduler throughput vs pending-queue depth",
		"mode", "sharepods", "virtual_decisions_per_sec", "real_us_per_decision")
	for _, n := range cfg.Counts {
		for _, mode := range []struct {
			name  string
			batch int
			gang  int
		}{
			{"single", 1, 0},
			{"batched", cfg.Batch, 0},
			{"batched+gang", cfg.Batch, cfg.Gang},
		} {
			virtual, real, decisions, err := fig15Run(n, mode.batch, mode.gang)
			if err != nil {
				return nil, fmt.Errorf("fig15: %w", err)
			}
			dps := float64(n) / virtual.Seconds()
			usPer := float64(real.Microseconds()) / float64(decisions)
			tb.AddRow(mode.name, n, fmt.Sprintf("%.1f", dps), fmt.Sprintf("%.2f", usPer))
		}
	}
	return tb, nil
}
