package experiments

import (
	"time"

	"kubeshare/internal/metrics"
	"kubeshare/internal/obs/tsdb"
	"kubeshare/internal/workload"
)

// Fig9Config drives the utilization-timeline experiment (mean demand 30%,
// variance 2 — the paper's example workload).
type Fig9Config struct {
	Fig8Config
	// FreqFactor is the arrival speed-up applied to the base inter-arrival.
	FreqFactor float64
	// Sample is the utilization sampling interval.
	Sample time.Duration
	// Buckets is the number of timeline rows in the output table.
	Buckets int
}

func (c Fig9Config) withDefaults() Fig9Config {
	c.Fig8Config = c.Fig8Config.withDefaults()
	if c.FreqFactor == 0 {
		c.FreqFactor = 6
	}
	if c.Sample == 0 {
		c.Sample = 5 * time.Second
	}
	if c.Buckets == 0 {
		c.Buckets = 12
	}
	return c
}

// fig9Jobs generates the Figure 9 workload for an already-defaulted config.
func fig9Jobs(cfg Fig9Config) []workload.Job {
	return workload.Generate(workload.GeneratorConfig{
		Jobs:             cfg.Jobs,
		MeanInterArrival: time.Duration(float64(cfg.BaseInterArrival) / cfg.FreqFactor),
		DemandMean:       cfg.DemandMean,
		DemandVar:        cfg.DemandVar,
		JobDuration:      cfg.JobDuration,
		Seed:             cfg.Seed,
	})
}

// Fig9Sharing runs only the KubeShare arm of the Figure 9 workload, with
// the observability spine on or off — the two arms of the
// instrumentation-overhead benchmark.
func Fig9Sharing(cfg Fig9Config, disableObs bool) (SharingResult, error) {
	cfg = cfg.withDefaults()
	return RunSharing(SharingConfig{
		System:      KubeShare,
		Nodes:       cfg.Nodes,
		GPUsPerNode: cfg.GPUsPerNode,
		Jobs:        fig9Jobs(cfg),
		DisableObs:  disableObs,
	})
}

// Fig9Result carries both systems' sampled timelines plus the summary
// table.
type Fig9Result struct {
	Table *metrics.Table
	// Per-system sampled series.
	Util   map[System]*tsdb.Series
	Active map[System]*tsdb.Series
	// Makespans per system.
	Makespan map[System]time.Duration
}

// Fig9 runs one workload under both systems and reports average GPU
// utilization and the number of allocated GPUs over time. The paper's
// shape: KubeShare drives active GPUs to higher utilization, holds fewer
// GPUs, and finishes the workload sooner.
func Fig9(cfg Fig9Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	jobs := fig9Jobs(cfg)
	out := &Fig9Result{
		Util:     map[System]*tsdb.Series{},
		Active:   map[System]*tsdb.Series{},
		Makespan: map[System]time.Duration{},
	}
	systems := []System{Kubernetes, KubeShare}
	results, err := runIndexed(len(systems), func(i int) (SharingResult, error) {
		return RunSharing(SharingConfig{
			System:      systems[i],
			Nodes:       cfg.Nodes,
			GPUsPerNode: cfg.GPUsPerNode,
			Jobs:        jobs,
			Sample:      cfg.Sample,
		})
	})
	if err != nil {
		return nil, err
	}
	for i, sys := range systems {
		out.Util[sys] = results[i].Util
		out.Active[sys] = results[i].ActiveGPUs
		out.Makespan[sys] = results[i].Makespan
	}
	// Bucket the timelines over the longer of the two makespans.
	horizon := out.Makespan[Kubernetes]
	if out.Makespan[KubeShare] > horizon {
		horizon = out.Makespan[KubeShare]
	}
	bucket := horizon / time.Duration(cfg.Buckets)
	tb := metrics.NewTable("Figure 9: average GPU utilization and active GPUs over time",
		"t", "k8s_util", "k8s_active", "kubeshare_util", "kubeshare_active")
	for i := 0; i < cfg.Buckets; i++ {
		from := time.Duration(i) * bucket
		to := from + bucket
		tb.AddRow(from.Round(time.Second).String(),
			out.Util[Kubernetes].TimeWeightedMean(from, to),
			out.Active[Kubernetes].TimeWeightedMean(from, to),
			out.Util[KubeShare].TimeWeightedMean(from, to),
			out.Active[KubeShare].TimeWeightedMean(from, to))
	}
	tb.AddRow("makespan",
		out.Makespan[Kubernetes].Round(time.Second).String(), "",
		out.Makespan[KubeShare].Round(time.Second).String(), "")
	out.Table = tb
	return out, nil
}
