package experiments

import (
	"sort"
	"time"

	"kubeshare/internal/metrics"
	"kubeshare/internal/obs"
	"kubeshare/internal/obs/attr"
)

// LatencyResult carries the percentile table plus the raw histogram
// snapshots for further analysis.
type LatencyResult struct {
	Table *metrics.Table
	// Obs is the full registry snapshot of the run.
	Obs obs.MetricsSnapshot
	// Attr is the critical-path attribution of the run's span trace.
	Attr attr.Result
	// OpenChains counts sharePods whose chains never reached a kernel
	// launch. Their latency is unbounded-in-progress, not zero: they are
	// excluded from every percentile above rather than folded in, and
	// surfaced here (and as kubeshare_obs_open_chains) so the exclusion
	// is visible instead of silently under-reporting the tail.
	OpenChains int
}

// latencyMetrics are the distributions the experiment reports, in table
// order: from submission to scheduling decision, the DevMgr bind (vGPU
// ensure + bound-pod creation), the kubelet pod sync, and the device
// library's token-wait under sharing pressure.
var latencyMetrics = []struct{ name, label string }{
	{"kubeshare_sched_latency_seconds", "sched_latency"},
	{"kubeshare_devmgr_bind_seconds", "bind"},
	{"kubeshare_kubelet_pod_sync_seconds", "pod_sync"},
	{"kubeshare_devlib_token_wait_seconds", "token_wait"},
}

// Latency runs the Fig 9 workload under KubeShare with telemetry on and
// tabulates p50/p90/p99
// and the mean of each recorded latency distribution (seconds). The
// scheduling-latency histogram measures submit-to-scheduled per sharePod;
// the token-wait histogram measures every token acquire across all devices
// — the grant-latency signal behind the paper's sharing guarantees.
func Latency(s Scale, seed int64) (*LatencyResult, error) {
	p := fig9Runs[s]
	res, err := RunSharing(SharingConfig{
		System:      KubeShare,
		Nodes:       p.nodes,
		GPUsPerNode: p.gpusPerNode,
		Jobs:        p.workload(seed),
		Attribution: true,
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("End-to-end latency percentiles (KubeShare, Fig 9 workload)",
		"metric", "count", "mean_s", "p50_s", "p90_s", "p99_s")
	for _, m := range latencyMetrics {
		h, ok := res.Obs.Histogram(m.name)
		if !ok {
			h = obs.HistogramSnapshot{Name: m.name}
		}
		tb.AddRow(m.label, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	}
	// End-to-end submit-to-first-kernel-launch, from the attribution
	// breakdowns: exact per-sharePod values, completed chains only. Open
	// chains are excluded (not zero-filled) and counted separately.
	if n := len(res.Attr.Breakdowns); n > 0 {
		e2e := make([]float64, 0, n)
		var sum time.Duration
		for _, bd := range res.Attr.Breakdowns {
			e2e = append(e2e, bd.EndToEnd.Seconds())
			sum += bd.EndToEnd
		}
		sort.Float64s(e2e)
		q := func(p float64) float64 { return e2e[int(p*float64(n-1)+0.5)] }
		tb.AddRow("e2e_launch", int64(n), (sum / time.Duration(n)).Seconds(), q(0.50), q(0.90), q(0.99))
	}
	return &LatencyResult{
		Table:      tb,
		Obs:        res.Obs,
		Attr:       res.Attr,
		OpenChains: len(res.Attr.Open),
	}, nil
}
