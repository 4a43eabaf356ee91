package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/chaos"
	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
	"kubeshare/internal/workload"
)

// fig17Params sizes the control-plane recovery sweep (an extension beyond
// the paper: the original evaluation assumes the apiserver never dies).
// Each cell runs the same seeded serving workload while the apiserver is
// crash/restarted on a Poisson schedule, sweeping restart intensity against
// checkpoint cadence, and reports what durability costs: the modeled
// unavailability window (checkpoint re-read + WAL replay), the measured
// warm-recovery time (how long consumers take to re-converge on the
// restored state), and the replayed-record count the checkpoint interval
// trades against.
type fig17Params struct {
	nodes, jobs int
	jobDuration time.Duration
	// restartMeans sweeps restart intensity: the mean interval between
	// apiserver crash/restarts.
	restartMeans []time.Duration
	// checkpointIntervals sweeps the checkpointer cadence. A negative entry
	// disables periodic checkpoints entirely — recovery then replays the
	// whole WAL from the enable-time checkpoint, the degenerate point that
	// bounds the sweep.
	checkpointIntervals []time.Duration
}

var fig17Runs = [...]fig17Params{
	Quick: {nodes: 2, jobs: 12, jobDuration: 10 * time.Second,
		restartMeans:        []time.Duration{20 * time.Second, 10 * time.Second},
		checkpointIntervals: []time.Duration{5 * time.Second, -1}},
	Full: {nodes: 3, jobs: 24, jobDuration: 20 * time.Second,
		restartMeans:        []time.Duration{40 * time.Second, 20 * time.Second, 10 * time.Second},
		checkpointIntervals: []time.Duration{5 * time.Second, 30 * time.Second, -1}},
}

// fig17GPUsPerNode is each node's GPU count.
const fig17GPUsPerNode = 2

// fig17TornTailEvery: the WAL tail is corrupted before every third restart,
// so the sweep also prices the truncate-and-recover path.
const fig17TornTailEvery = 3

// fig17Result is one (restart mean, checkpoint interval) cell.
type fig17Result struct {
	restarts    int
	tornTails   int
	replayed    int
	outage      time.Duration // modeled unavailability, summed
	recoverySum time.Duration // measured consumer re-convergence, summed
	recoveryMax time.Duration
	succeeded   int
	makespan    time.Duration
}

// fig17Run executes one cell: the soak workload with the apiserver dying on
// a Poisson schedule and durability checkpointing at the given cadence.
// After every restart a probe polls the scheduler's snapshot against a full
// relist; the time until they agree again is the measured recovery window
// (zero when the restore was exact and the relist diff empty — the warm
// path working as designed; nonzero when a torn tail reverted state the
// consumers had already acted on).
func fig17Run(p fig17Params, seed int64, restartMean, ckptInterval time.Duration) (fig17Result, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, p.nodes, fig17GPUsPerNode, false)
	if err != nil {
		return fig17Result{}, err
	}
	c.API.EnableDurability(apiserver.DurabilityConfig{CheckpointInterval: ckptInterval})
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		return fig17Result{}, err
	}

	submitWindow := 40 * time.Second
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs:             p.jobs,
		MeanInterArrival: submitWindow / time.Duration(p.jobs),
		DemandMean:       0.35,
		DemandVar:        1,
		JobDuration:      p.jobDuration,
		Seed:             simrand.New(seed).Fork("workload").Seed(),
	})
	// The first error inside either proc stops both; the cell then reports it.
	var runErr error
	submitJobs(env, c, KubeShare, jobs, &runErr)

	horizon := submitWindow + p.jobDuration
	var res fig17Result
	rng := simrand.New(seed).Fork("apiserver")
	env.Go("fig17-restarter", func(p *sim.Proc) {
		for runErr == nil {
			p.Sleep(rng.ExpDuration(restartMean))
			if env.Now() >= horizon {
				return
			}
			if (res.restarts+1)%fig17TornTailEvery == 0 && c.API.TearWALTail(rng.Intn(5)) {
				res.tornTails++
			}
			st, err := c.API.Restart()
			if err != nil {
				runErr = fmt.Errorf("restart: %w", err)
				return
			}
			res.restarts++
			res.replayed += st.Replayed
			res.outage += time.Duration(st.ModeledOutageNS)
			// Recovery probe: the restart is recovered once the scheduler's
			// incremental snapshot again materializes exactly the pool a full
			// relist builds — every reflector has relisted into the new epoch.
			t0 := env.Now()
			for ks.Sched.VerifySnapshot() != nil {
				p.Sleep(10 * time.Millisecond)
			}
			rec := env.Now() - t0
			res.recoverySum += rec
			if rec > res.recoveryMax {
				res.recoveryMax = rec
			}
		}
	})

	env.RunUntil(20 * time.Minute)
	if runErr != nil {
		return res, fmt.Errorf("fig17: mean=%v ckpt=%v: %w", restartMean, ckptInterval, runErr)
	}
	scanJobs(c, KubeShare, func(_ string, o outcome) {
		res.makespan = max(res.makespan, o.finish)
		if o.succeeded {
			res.succeeded++
		}
	})
	// A cell is only valid if the cluster fully recovered: every quiescence
	// invariant holds (nothing wedged, nothing leaked, snapshot equivalent).
	for _, v := range chaos.VerifyQuiescence(c, ks) {
		return res, fmt.Errorf("fig17: mean=%v ckpt=%v: invariant violated: %w", restartMean, ckptInterval, v)
	}
	return res, nil
}

// Fig17 sweeps restart intensity × checkpoint interval and reports the
// durability/recovery trade-off: frequent checkpoints buy short replays
// (small unavailability windows) at a steady serialization cost; rare or
// absent checkpoints let the WAL grow until every restart pays a long
// replay. Measured recovery time stays near zero throughout — the
// warm-recovery contract — except where torn tails force consumers to
// re-converge on reverted state.
func Fig17(s Scale, seed int64) (*metrics.Table, error) {
	p := fig17Runs[s]
	tb := metrics.NewTable("Figure 17: control-plane crash/restart recovery sweep",
		"restart_mean_s", "ckpt_interval_s", "restarts", "torn_tails", "replayed",
		"outage_ms", "recovery_ms_mean", "recovery_ms_max", "succeeded", "makespan_s")
	type cell struct{ mean, ckpt time.Duration }
	var cells []cell
	for _, mean := range p.restartMeans {
		for _, ckpt := range p.checkpointIntervals {
			cells = append(cells, cell{mean, ckpt})
		}
	}
	results, err := runIndexed(len(cells), func(i int) (fig17Result, error) {
		return fig17Run(p, seed, cells[i].mean, cells[i].ckpt)
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		ckptS := cells[i].ckpt.Seconds()
		if cells[i].ckpt < 0 {
			ckptS = -1 // periodic checkpoints disabled
		}
		meanRec := 0.0
		if r.restarts > 0 {
			meanRec = float64(r.recoverySum.Milliseconds()) / float64(r.restarts)
		}
		tb.AddRow(cells[i].mean.Seconds(), ckptS, r.restarts, r.tornTails, r.replayed,
			fmt.Sprintf("%.3f", float64(r.outage)/float64(time.Millisecond)),
			fmt.Sprintf("%.2f", meanRec), r.recoveryMax.Milliseconds(),
			r.succeeded, fmt.Sprintf("%.1f", r.makespan.Seconds()))
	}
	return tb, nil
}
