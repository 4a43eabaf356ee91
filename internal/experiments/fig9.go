package experiments

import (
	"io"
	"time"

	"kubeshare/internal/metrics"
	"kubeshare/internal/obs/tsdb"
	"kubeshare/internal/workload"
)

// fig9Params sizes Figure 9: the Figure 8 cluster and workload (mean
// demand 30%, variance 2 — the paper's example) at one arrival speed-up.
type fig9Params struct {
	fig8Params
	freqFactor float64
}

// fig9Runs are Figure 9's two runs. The same workload drives the latency
// percentiles, the fairness audit and `kubeshare-sim serve`, so each of
// those is sized here too. The quick run's factor 2.5 puts the 8-GPU
// cluster past Kubernetes' saturation point (6×2.5=15 concurrent whole-GPU
// jobs) but below KubeShare's (15×≈0.36 ≈ 5.4 GPUs of fractional demand) —
// the regime where KubeShare holds fewer, busier GPUs.
var fig9Runs = [...]fig9Params{
	Quick: {fig8Runs[Quick], 2.5},
	Full:  {fig8Runs[Full], 6},
}

const (
	// fig9Sample is the utilization sampling interval.
	fig9Sample = 5 * time.Second
	// fig9Buckets is the number of timeline rows in the output table.
	fig9Buckets = 12
)

// workload generates the Figure 9 workload at seed.
func (p fig9Params) workload(seed int64) []workload.Job {
	return workload.Generate(p.generator(p.freqFactor, seed))
}

// Fig9Sharing runs only the KubeShare arm of the quick Figure 9 run at seed
// 1, with the observability spine on or off — the two arms of the
// instrumentation-overhead benchmark.
func Fig9Sharing(disableObs bool) (SharingResult, error) {
	p := fig9Runs[Quick]
	return RunSharing(SharingConfig{
		System:      KubeShare,
		Nodes:       p.nodes,
		GPUsPerNode: p.gpusPerNode,
		Jobs:        p.workload(1),
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
func Fig9(s Scale, seed int64) (*Fig9Result, error) {
	p := fig9Runs[s]
	jobs := p.workload(seed)
	out := &Fig9Result{
		Util:     map[System]*tsdb.Series{},
		Active:   map[System]*tsdb.Series{},
		Makespan: map[System]time.Duration{},
	}
	systems := []System{Kubernetes, KubeShare}
	results, err := runIndexed(len(systems), func(i int) (SharingResult, error) {
		return RunSharing(SharingConfig{
			System:      systems[i],
			Nodes:       p.nodes,
			GPUsPerNode: p.gpusPerNode,
			Jobs:        jobs,
			Sample:      fig9Sample,
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
	bucket := horizon / fig9Buckets
	tb := metrics.NewTable("Figure 9: average GPU utilization and active GPUs over time",
		"t", "k8s_util", "k8s_active", "kubeshare_util", "kubeshare_active")
	for i := 0; i < fig9Buckets; i++ {
		from := time.Duration(i) * bucket
		row := []any{from.Round(time.Second).String()}
		for _, sys := range systems {
			// A system's cells end at its own makespan: past it a series
			// only holds its last sample, which measures nothing.
			if to := min(from+bucket, out.Makespan[sys]); from < to {
				row = append(row, out.Util[sys].TimeWeightedMean(from, to), out.Active[sys].TimeWeightedMean(from, to))
			} else {
				row = append(row, "", "")
			}
		}
		tb.AddRow(row...)
	}
	tb.AddRow("makespan",
		out.Makespan[Kubernetes].Round(time.Second).String(), "",
		out.Makespan[KubeShare].Round(time.Second).String(), "")
	out.Table = tb
	return out, nil
}

// renderCharts draws the two timelines Figure 9 plots: average GPU
// utilization and allocated GPUs, per system.
func (r *Fig9Result) renderCharts(w io.Writer) {
	util := metrics.NewChart("Figure 9 timeline: average GPU utilization")
	util.YMax = 1
	active := metrics.NewChart("Figure 9 timeline: allocated GPUs")
	for _, sys := range []System{Kubernetes, KubeShare} {
		r.Util[sys].Name, r.Active[sys].Name = string(sys), string(sys)
		util.Add(r.Util[sys])
		active.Add(r.Active[sys])
	}
	util.Render(w)
	active.Render(w)
}
