package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/metrics"
	"kubeshare/internal/obs/tsdb"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// Fig6Config drives the Figure 6 isolation experiment: three training jobs
// with staggered arrivals on a single shared GPU.
type Fig6Config struct {
	// Stagger is the arrival gap between jobs (paper: 200 s).
	Stagger time.Duration
	// SampleEvery is the usage sampling interval.
	SampleEvery time.Duration
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.Stagger == 0 {
		c.Stagger = 200 * time.Second
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10 * time.Second
	}
	return c
}

// fig6Job describes one of the paper's three jobs.
type fig6Job struct {
	name          string
	request       float64
	limit         float64
	arrival       time.Duration
	trainDuration time.Duration // device time the job needs
}

// Fig6Result carries the per-job usage timelines plus the phase table.
type Fig6Result struct {
	Table *metrics.Table
	// Usage holds one series per job (token-hold share over time), the
	// exact signal Figure 6 plots.
	Usage map[string]*tsdb.Series
}

// Fig6 reproduces the isolation timeline: Job A (req .3, lim .6) at 0,
// Job B (req .4, lim .6) at +stagger, Job C (req .3, lim .5) at +2×stagger.
// The paper's observable phases: A alone throttled at 0.6; A+B split 0.5
// each; A+B+C at their guaranteed requests; after C finishes, the residual
// is redistributed.
func Fig6(cfg Fig6Config) (*Fig6Result, error) {
	cfg = cfg.withDefaults()
	env := sim.NewEnv()
	c, err := newCluster(env, 1, 1)
	if err != nil {
		return nil, err
	}
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		return nil, err
	}
	s := cfg.Stagger
	jobs := []fig6Job{
		// Durations chosen so C finishes at ≈3.3×stagger (the paper's 660 s
		// with stagger 200 s) and A and B continue past it.
		{"job-a", 0.3, 0.6, 0, time.Duration(2.6 * float64(s))},
		{"job-b", 0.4, 0.6, s, time.Duration(1.6 * float64(s))},
		{"job-c", 0.3, 0.5, 2 * s, time.Duration(0.39 * float64(s))},
	}
	for _, j := range jobs {
		j := j
		env.At(j.arrival, func() {
			steps := int(j.trainDuration / (10 * time.Millisecond))
			sp := &core.SharePod{
				ObjectMeta: api.ObjectMeta{Name: j.name},
				Spec: core.SharePodSpec{
					GPURequest: j.request,
					GPULimit:   j.limit,
					GPUMem:     workload.MemShareTraining,
					Pod: api.PodSpec{Containers: []api.Container{{
						Name:  "train",
						Image: workload.TrainImage,
						Env:   map[string]string{workload.EnvSteps: fmt.Sprintf("%d", steps)},
					}}},
				},
			}
			if _, err := core.SharePods(c.API).Create(sp); err != nil {
				panic(err)
			}
		})
	}

	usage := map[string]*tsdb.Series{}
	for _, j := range jobs {
		usage[j.name] = &tsdb.Series{Name: j.name}
	}
	// Sample each job's usage rate from the node backend.
	env.Go("usage-sampler", func(p *sim.Proc) {
		backend := ks.Backends["node-0"]
		for {
			p.Sleep(cfg.SampleEvery)
			done := 0
			for _, j := range jobs {
				sp, err := core.SharePods(c.API).Get(j.name)
				if err != nil {
					continue
				}
				if sp.Terminated() {
					done++
					continue
				}
				if sp.Status.UUID == "" {
					continue
				}
				rate := 0.0
				if strat := backend.StrategyOf(sp.Status.UUID); strat != nil {
					rate = strat.UsageRate(sp.Status.BoundPod + "/train")
				}
				usage[j.name].Add(env.Now(), rate)
			}
			if done == len(jobs) {
				return
			}
		}
	})
	env.Run()

	tb := metrics.NewTable("Figure 6: GPU isolation timeline (usage share per job)",
		"phase", "window", "job_a", "job_b", "job_c")
	phase := func(label string, from, to time.Duration) {
		tb.AddRow(label, fmt.Sprintf("%v-%v", from, to),
			usage["job-a"].TimeWeightedMean(from, to),
			usage["job-b"].TimeWeightedMean(from, to),
			usage["job-c"].TimeWeightedMean(from, to))
	}
	// Steady-state windows inside each phase (skipping the sliding-window
	// warm-up at each transition).
	warm := time.Duration(0.4 * float64(s))
	phase("A alone (limit 0.6)", warm, s)
	phase("A+B (fair split 0.5/0.5)", s+warm, 2*s)
	phase("A+B+C (requests 0.3/0.4/0.3)", 2*s+warm, time.Duration(3.2*float64(s)))
	return &Fig6Result{Table: tb, Usage: usage}, nil
}
