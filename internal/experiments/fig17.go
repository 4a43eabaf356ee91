package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/chaos"
	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
	"kubeshare/internal/workload"
)

// Fig17Config drives the control-plane recovery sweep (an extension beyond
// the paper: the original evaluation assumes the apiserver never dies).
// Each cell runs the same seeded serving workload while the apiserver is
// crash/restarted on a Poisson schedule, sweeping restart intensity against
// checkpoint cadence, and reports what durability costs: the modeled
// unavailability window (checkpoint re-read + WAL replay), the measured
// warm-recovery time (how long consumers take to re-converge on the
// restored state), and the replayed-record count the checkpoint interval
// trades against.
type Fig17Config struct {
	Seed        int64
	Nodes       int
	GPUsPerNode int
	Jobs        int
	JobDuration time.Duration

	// RestartMeans sweeps restart intensity: the mean interval between
	// apiserver crash/restarts.
	RestartMeans []time.Duration
	// CheckpointIntervals sweeps the checkpointer cadence. A negative entry
	// disables periodic checkpoints entirely — recovery then replays the
	// whole WAL from the enable-time checkpoint, the degenerate point that
	// bounds the sweep.
	CheckpointIntervals []time.Duration
	// TornTailEvery corrupts the WAL tail before every Nth restart, so the
	// sweep also prices the truncate-and-recover path (default 3).
	TornTailEvery int
}

func (c Fig17Config) withDefaults() Fig17Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 2
	}
	if c.Jobs == 0 {
		c.Jobs = 24
	}
	if c.JobDuration == 0 {
		c.JobDuration = 20 * time.Second
	}
	if len(c.RestartMeans) == 0 {
		c.RestartMeans = []time.Duration{40 * time.Second, 20 * time.Second, 10 * time.Second}
	}
	if len(c.CheckpointIntervals) == 0 {
		c.CheckpointIntervals = []time.Duration{5 * time.Second, 30 * time.Second, -1}
	}
	if c.TornTailEvery == 0 {
		c.TornTailEvery = 3
	}
	return c
}

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
func fig17Run(cfg Fig17Config, restartMean, ckptInterval time.Duration) (fig17Result, error) {
	env := sim.NewEnv()
	kcfg := kube.Config{}
	for i := 0; i < cfg.Nodes; i++ {
		kcfg.Nodes = append(kcfg.Nodes, kube.NodeConfig{
			Name: fmt.Sprintf("node-%d", i),
			GPUs: cfg.GPUsPerNode,
		})
	}
	c, err := kube.NewCluster(env, kcfg)
	if err != nil {
		return fig17Result{}, err
	}
	instrumented(c.API)
	workload.RegisterImages(c)
	c.API.EnableDurability(apiserver.DurabilityConfig{CheckpointInterval: ckptInterval})
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		return fig17Result{}, err
	}

	submitWindow := 40 * time.Second
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs:             cfg.Jobs,
		MeanInterArrival: submitWindow / time.Duration(cfg.Jobs),
		DemandMean:       0.35,
		DemandVar:        1,
		JobDuration:      cfg.JobDuration,
		Seed:             simrand.New(cfg.Seed).Fork("workload").Seed(),
	})
	env.Go("fig17-submitter", func(p *sim.Proc) {
		for _, j := range jobs {
			if wait := j.Arrival - env.Now(); wait > 0 {
				p.Sleep(wait)
			}
			if _, err := core.SharePods(c.API).Create(workload.SharePodFor(j)); err != nil {
				panic(fmt.Sprintf("fig17: submit %s: %v", j.Name, err))
			}
		}
	})

	horizon := submitWindow + cfg.JobDuration
	var res fig17Result
	rng := simrand.New(cfg.Seed).Fork("apiserver")
	env.Go("fig17-restarter", func(p *sim.Proc) {
		for {
			p.Sleep(rng.ExpDuration(restartMean))
			if env.Now() >= horizon {
				return
			}
			if (res.restarts+1)%cfg.TornTailEvery == 0 && c.API.TearWALTail(rng.Intn(5)) {
				res.tornTails++
			}
			st, err := c.API.Restart()
			if err != nil {
				panic(fmt.Sprintf("fig17: restart: %v", err))
			}
			res.restarts++
			res.replayed += st.Replayed
			res.outage += time.Duration(st.ModeledOutageNS)
			// Recovery probe: the restart is recovered once the scheduler's
			// incremental snapshot again materializes exactly the pool a full
			// relist builds — every reflector has re-synced into the new epoch.
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
	for _, sp := range core.SharePods(c.API).List() {
		if sp.Status.FinishTime > res.makespan {
			res.makespan = sp.Status.FinishTime
		}
		if sp.Status.Phase == core.SharePodSucceeded {
			res.succeeded++
		}
	}
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
func Fig17(cfg Fig17Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	tb := metrics.NewTable("Figure 17: control-plane crash/restart recovery sweep",
		"restart_mean_s", "ckpt_interval_s", "restarts", "torn_tails", "replayed",
		"outage_ms", "recovery_ms_mean", "recovery_ms_max", "succeeded", "makespan_s")
	type cell struct{ mean, ckpt time.Duration }
	var cells []cell
	for _, mean := range cfg.RestartMeans {
		for _, ckpt := range cfg.CheckpointIntervals {
			cells = append(cells, cell{mean, ckpt})
		}
	}
	results, err := runIndexed(len(cells), func(i int) (fig17Result, error) {
		return fig17Run(cfg, cells[i].mean, cells[i].ckpt)
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
