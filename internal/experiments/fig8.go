package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/metrics"
	"kubeshare/internal/workload"
)

// fig8Params sizes the Figure 8 sweeps: the cluster, the inference
// workload (Poisson arrivals, normally distributed demands) and how many
// seeded runs each point averages.
type fig8Params struct {
	nodes, gpusPerNode, jobs int
	// jobDuration is each inference job's serving window.
	jobDuration time.Duration
	repeats     int
}

// The quick run shrinks the cluster to 2×4 GPUs and the workload to roughly
// a quarter of the paper's; the full run is the paper's testbed and its
// 5-run averages.
var fig8Runs = [...]fig8Params{
	Quick: {nodes: 2, gpusPerNode: 4, jobs: 60, jobDuration: 30 * time.Second, repeats: 1},
	Full:  {nodes: 8, gpusPerNode: 4, jobs: 200, jobDuration: 40 * time.Second, repeats: 5},
}

// The Figure 8 workload's demand distribution, and its mean job
// inter-arrival at frequency factor 1; the demand sweeps run at 12× that
// rate, heavy load.
const (
	fig8DemandMean   = 0.3
	fig8DemandVar    = 2
	fig8InterArrival = 5 * time.Second
)

// generator is the Figure 8 workload at seed with arrivals sped up by
// factor.
func (p fig8Params) generator(factor float64, seed int64) workload.GeneratorConfig {
	return workload.GeneratorConfig{
		Jobs:             p.jobs,
		MeanInterArrival: time.Duration(float64(fig8InterArrival) / factor),
		DemandMean:       fig8DemandMean,
		DemandVar:        fig8DemandVar,
		JobDuration:      p.jobDuration,
		Seed:             seed,
	}
}

// throughputAt runs both systems for one workload parameterization and
// returns their mean throughputs (jobs/min) across repeats. The
// repeats × systems grid fans out in parallel; each run regenerates its job
// list from the per-repeat seed, so runs share nothing.
func throughputAt(p fig8Params, gen workload.GeneratorConfig) (k8s, ks float64, err error) {
	systems := []System{Kubernetes, KubeShare}
	tputs, err := runIndexed(p.repeats*len(systems), func(i int) (float64, error) {
		g := gen
		g.Seed = gen.Seed + int64(i/len(systems))*9973
		sys := systems[i%len(systems)]
		res, err := RunSharing(SharingConfig{
			System:      sys,
			Nodes:       p.nodes,
			GPUsPerNode: p.gpusPerNode,
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
	n := float64(p.repeats)
	return k8sSum / n, ksSum / n, nil
}

// fig8Sweep runs both systems on gen(x) at every point x, in parallel, and
// adds one row per point to tb: x, the cells lead derives from the point's
// workload (none when lead is nil), both throughputs and KubeShare's speedup.
func fig8Sweep(p fig8Params, tb *metrics.Table, points []float64, gen func(x float64) workload.GeneratorConfig, lead func(workload.GeneratorConfig) []any) (*metrics.Table, error) {
	pts, err := runIndexed(len(points), func(i int) ([2]float64, error) {
		k8s, ks, err := throughputAt(p, gen(points[i]))
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
func Fig8a(s Scale, seed int64) (*metrics.Table, error) {
	p := fig8Runs[s]
	tb := metrics.NewTable("Figure 8a: throughput vs job frequency",
		"freq_factor", "offered_jobs_per_min", "kubernetes", "kubeshare", "speedup")
	gen := func(factor float64) workload.GeneratorConfig { return p.generator(factor, seed) }
	return fig8Sweep(p, tb, []float64{1, 2, 3, 5, 7, 9, 12, 16}, gen, func(g workload.GeneratorConfig) []any {
		return []any{60.0 / g.MeanInterArrival.Seconds()}
	})
}

// Fig8b sweeps the mean GPU demand at heavy load. The paper's shape:
// Kubernetes is flat (demand-agnostic), KubeShare's gain shrinks from
// ≈2.5× at ≤20% demand toward parity at ≥60%.
func Fig8b(s Scale, seed int64) (*metrics.Table, error) {
	p := fig8Runs[s]
	tb := metrics.NewTable("Figure 8b: throughput vs mean GPU demand",
		"demand_mean", "kubernetes", "kubeshare", "speedup")
	return fig8Sweep(p, tb, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, func(mean float64) workload.GeneratorConfig {
		// Heavy load so sharing capacity is the bottleneck.
		g := p.generator(12, seed)
		g.DemandMean = mean
		return g
	}, nil)
}

// Fig8c sweeps the demand variance at heavy load. The paper's shape: flat
// for both systems.
func Fig8c(s Scale, seed int64) (*metrics.Table, error) {
	p := fig8Runs[s]
	tb := metrics.NewTable("Figure 8c: throughput vs GPU demand variance",
		"demand_var", "kubernetes", "kubeshare", "speedup")
	return fig8Sweep(p, tb, []float64{0.5, 1, 2, 3, 4}, func(v float64) workload.GeneratorConfig {
		g := p.generator(12, seed)
		g.DemandVar = v
		return g
	}, nil)
}
