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

// Figure 6's three training jobs arrive one stagger apart on a single
// shared GPU (the paper's stagger is 200 s); each job's usage is sampled
// every fig6Sample.
var fig6Stagger = [...]time.Duration{Quick: 100 * time.Second, Full: 200 * time.Second}

const fig6Sample = 10 * time.Second

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

// Chart plots the usage timelines, the series Figure 6 draws.
func (r *Fig6Result) Chart() *metrics.Chart {
	chart := metrics.NewChart("Figure 6 timeline: per-job GPU usage share")
	chart.YMax = 1
	for _, name := range []string{"job-a", "job-b", "job-c"} {
		chart.Add(r.Usage[name])
	}
	return chart
}

// Fig6 reproduces the isolation timeline: Job A (req .3, lim .6) at 0,
// Job B (req .4, lim .6) at +stagger, Job C (req .3, lim .5) at +2×stagger.
// The paper's observable phases: A alone throttled at 0.6; A+B split 0.5
// each; A+B+C at their guaranteed requests; after C finishes, the residual
// is redistributed.
func Fig6(scale Scale) (*Fig6Result, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, 1, 1, false)
	if err != nil {
		return nil, err
	}
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		return nil, err
	}
	s := fig6Stagger[scale]
	jobs := []fig6Job{
		// Durations chosen so C finishes at ≈3.3×stagger (the paper's 660 s
		// with stagger 200 s) and A and B continue past it.
		{"job-a", 0.3, 0.6, 0, time.Duration(2.6 * float64(s))},
		{"job-b", 0.4, 0.6, s, time.Duration(1.6 * float64(s))},
		{"job-c", 0.3, 0.5, 2 * s, time.Duration(0.39 * float64(s))},
	}
	var runErr error
	workload.Submit(env, c.API, len(jobs), func(i int) (time.Duration, api.Object) {
		j := jobs[i]
		steps := int(j.trainDuration / (10 * time.Millisecond))
		return j.arrival, &core.SharePod{
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
	}, &runErr)

	usage := map[string]*tsdb.Series{}
	for _, j := range jobs {
		usage[j.name] = &tsdb.Series{Name: j.name}
	}
	// Sample each job's usage rate from the node backend until every job is
	// done, or a submission failed and never will be.
	env.Go("usage-sampler", func(p *sim.Proc) {
		backend := ks.Backends["node-0"]
		for runErr == nil {
			p.Sleep(fig6Sample)
			done := 0
			for _, j := range jobs {
				// The sampler is the experiment, not a component: it informs on nothing.
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
	if runErr != nil {
		return nil, runErr
	}

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
