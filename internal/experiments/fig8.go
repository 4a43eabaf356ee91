package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/metrics"
	"kubeshare/internal/workload"
)

// Fig8Config drives the GPU-sharing throughput sweeps of Figure 8. The
// defaults mirror the paper's testbed: 8 nodes × 4 GPUs and inference
// workloads with Poisson arrivals and normally distributed demands.
type Fig8Config struct {
	Nodes       int
	GPUsPerNode int
	Jobs        int
	// JobDuration is each inference job's serving window.
	JobDuration time.Duration
	// DemandMean / DemandVar parameterize the demand distribution.
	DemandMean float64
	DemandVar  float64
	// Repeats averages each point over this many seeded runs (paper: 5).
	Repeats int
	Seed    int64
}

// fig8InterArrival is the mean job inter-arrival at frequency factor 1; the
// demand sweeps run at 12× that rate, heavy load.
const fig8InterArrival = 5 * time.Second

func (c Fig8Config) withDefaults() Fig8Config {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 4
	}
	if c.Jobs == 0 {
		c.Jobs = 200
	}
	if c.JobDuration == 0 {
		c.JobDuration = 40 * time.Second
	}
	if c.DemandMean == 0 {
		c.DemandMean = 0.3
	}
	if c.DemandVar == 0 {
		c.DemandVar = 2
	}
	if c.Repeats == 0 {
		c.Repeats = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// generator is the Figure 8 workload of an already-defaulted config with
// arrivals sped up by factor.
func (c Fig8Config) generator(factor float64) workload.GeneratorConfig {
	return workload.GeneratorConfig{
		Jobs:             c.Jobs,
		MeanInterArrival: time.Duration(float64(fig8InterArrival) / factor),
		DemandMean:       c.DemandMean,
		DemandVar:        c.DemandVar,
		JobDuration:      c.JobDuration,
		Seed:             c.Seed,
	}
}

// throughputAt runs both systems for one workload parameterization and
// returns their mean throughputs (jobs/min) across repeats. The
// repeats × systems grid fans out in parallel; each run regenerates its job
// list from the per-repeat seed, so runs share nothing.
func throughputAt(cfg Fig8Config, gen workload.GeneratorConfig) (k8s, ks float64, err error) {
	systems := []System{Kubernetes, KubeShare}
	tputs, err := runIndexed(cfg.Repeats*len(systems), func(i int) (float64, error) {
		g := gen
		g.Seed = gen.Seed + int64(i/len(systems))*9973
		sys := systems[i%len(systems)]
		res, err := RunSharing(SharingConfig{
			System:      sys,
			Nodes:       cfg.Nodes,
			GPUsPerNode: cfg.GPUsPerNode,
			Jobs:        workload.Generate(g),
		})
		if err != nil {
			return 0, err
		}
		if res.Failed > 0 {
			return 0, fmt.Errorf("%s run had %d failed jobs", sys, res.Failed)
		}
		return res.ThroughputPerMin, nil
	})
	if err != nil {
		return 0, 0, err
	}
	var k8sSum, ksSum float64
	for i, t := range tputs {
		if systems[i%len(systems)] == Kubernetes {
			k8sSum += t
		} else {
			ksSum += t
		}
	}
	n := float64(cfg.Repeats)
	return k8sSum / n, ksSum / n, nil
}

// fig8Sweep runs both systems on gen(x) at every point x, in parallel, and
// adds one row per point to tb: x, the cells lead derives from the point's
// workload (none when lead is nil), both throughputs and KubeShare's speedup.
func fig8Sweep(cfg Fig8Config, tb *metrics.Table, points []float64, gen func(x float64) workload.GeneratorConfig, lead func(workload.GeneratorConfig) []any) (*metrics.Table, error) {
	pts, err := runIndexed(len(points), func(i int) ([2]float64, error) {
		k8s, ks, err := throughputAt(cfg, gen(points[i]))
		return [2]float64{k8s, ks}, err
	})
	if err != nil {
		return nil, err
	}
	for i, x := range points {
		row := []any{x}
		if lead != nil {
			row = append(row, lead(gen(x))...)
		}
		k8s, ks := pts[i][0], pts[i][1]
		tb.AddRow(append(row, k8s, ks, ks/k8s)...)
	}
	return tb, nil
}

// Fig8a sweeps the job frequency factor: arrivals speed up until both
// systems saturate. The paper's shape: Kubernetes flattens near 50
// jobs/min, KubeShare climbs to ≈110 jobs/min (≈2× at heavy load).
func Fig8a(cfg Fig8Config, factors []float64) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	if len(factors) == 0 {
		factors = []float64{1, 2, 3, 5, 7, 9, 12, 16}
	}
	tb := metrics.NewTable("Figure 8a: throughput vs job frequency",
		"freq_factor", "offered_jobs_per_min", "kubernetes", "kubeshare", "speedup")
	return fig8Sweep(cfg, tb, factors, cfg.generator, func(g workload.GeneratorConfig) []any {
		return []any{60.0 / g.MeanInterArrival.Seconds()}
	})
}

// Fig8b sweeps the mean GPU demand at heavy load. The paper's shape:
// Kubernetes is flat (demand-agnostic), KubeShare's gain shrinks from
// ≈2.5× at ≤20% demand toward parity at ≥60%.
func Fig8b(cfg Fig8Config, means []float64) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	if len(means) == 0 {
		means = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	}
	tb := metrics.NewTable("Figure 8b: throughput vs mean GPU demand",
		"demand_mean", "kubernetes", "kubeshare", "speedup")
	return fig8Sweep(cfg, tb, means, func(mean float64) workload.GeneratorConfig {
		// Heavy load so sharing capacity is the bottleneck.
		g := cfg.generator(12)
		g.DemandMean = mean
		return g
	}, nil)
}

// Fig8c sweeps the demand variance at heavy load. The paper's shape: flat
// for both systems.
func Fig8c(cfg Fig8Config, variances []float64) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	if len(variances) == 0 {
		variances = []float64{0.5, 1, 2, 3, 4}
	}
	tb := metrics.NewTable("Figure 8c: throughput vs GPU demand variance",
		"demand_var", "kubernetes", "kubeshare", "speedup")
	return fig8Sweep(cfg, tb, variances, func(v float64) workload.GeneratorConfig {
		g := cfg.generator(12)
		g.DemandVar = v
		return g
	}, nil)
}
