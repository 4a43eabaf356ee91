// Command metricsdoc generates docs/METRICS.md from the source tree: it
// scans every metric family registered on the telemetry registry (via
// tools/metricscan) and renders one reference table of name, type, label
// keys and a curated description, plus a section for the dynamic families
// whose names are built at runtime.
//
// Usage:
//
//	go run ./tools/metricsdoc            # rewrite docs/METRICS.md
//	go run ./tools/metricsdoc -check     # exit 1 if the doc is stale
//
// detvet's -metricsdoc rule enforces the other direction at check time:
// every registered kubeshare_ family must have a doc row and every static
// doc row must have a registration site, so the doc cannot rot in either
// direction. A scanned metric missing from the descriptions table below
// fails the generator — add the description when you add the metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kubeshare/tools/metricscan"
)

// descriptions is the curated per-family documentation. Keys must cover
// exactly the families the scanner finds; the generator fails otherwise.
var descriptions = map[string]string{
	"kubeshare_apiserver_read_requests_total":     "API server read (get/list) requests served.",
	"kubeshare_apiserver_reflector_relists_total": "Full reflector relists after watch-channel loss (legacy aggregate).",
	"kubeshare_apiserver_reflector_resumes_total": "Reflector watches resumed from a revision without a relist.",
	"kubeshare_apiserver_restarts_total":          "API server crash/restart cycles (chaos or operator driven).",
	"kubeshare_apiserver_watches_total":           "Watch streams opened against the API server.",
	"kubeshare_apiserver_write_requests_total":    "API server write (create/update/delete) requests served.",
	"kubeshare_devlib_throttle_retries_total":     "Device-library token requests deferred by the throttle window.",
	"kubeshare_devlib_token_grants_total":         "Tokens granted by the device library's sharing arbiter.",
	"kubeshare_devlib_token_hold_ns_total":        "Virtual nanoseconds of token hold time, per device and tenant.",
	"kubeshare_devlib_token_wait_seconds":         "Token-wait latency distribution per device — the sharing-pressure signal the paper's guarantees bound. Records exemplars when attribution is on.",
	"kubeshare_devmgr_bind_seconds":               "DevMgr bind latency: vGPU ensure (holder pod start included) plus bound-pod creation. Records exemplars when attribution is on.",
	"kubeshare_devmgr_binds_total":                "SharePod bind operations completed by DevMgr.",
	"kubeshare_devmgr_vgpu_creates_total":         "vGPUs created (holder pod acquired a physical GPU).",
	"kubeshare_devmgr_vgpu_recoveries_total":      "vGPUs recovered onto a replacement GPU after device loss.",
	"kubeshare_devmgr_vgpu_recovery_fails_total":  "vGPU recoveries that found no replacement GPU (vGPU written off).",
	"kubeshare_gpu_fairness_jain":                 "Per-GPU Jain fairness index over the auditor's sampling window.",
	"kubeshare_gpu_faults_total":                  "Simulated GPU device faults injected, per device and node.",
	"kubeshare_gpu_kernel_launches_total":         "Kernel launches executed on the simulated GPU, per device and node.",
	"kubeshare_gpu_utilization_ratio":             "Sampled busy fraction of each simulated GPU.",
	"kubeshare_kubelet_allocation_failures_total": "Device-plugin allocations the kubelet failed, per node.",
	"kubeshare_kubelet_pod_sync_seconds":          "Kubelet pod-sync latency (device allocation, image pull, container starts), per node. Records exemplars when attribution is on.",
	"kubeshare_kubelet_pod_syncs_total":           "Pod syncs completed by the kubelet, per node.",
	"kubeshare_obs_open_chains":                   "SharePod causal chains that never reached a kernel launch — excluded from latency percentiles, counted here instead. Set on attribution-enabled runs.",
	"kubeshare_obs_spans_dropped_total":           "Spans dropped at the tracer's retention cap. Registered lazily on the first drop.",
	"kubeshare_reflector_relist_total":            "Full relists per consumer after apiserver restarts invalidate a watch.",
	"kubeshare_sched_batch_conflicts_total":       "Pipeline runs that found no capacity after an earlier unit of the same batch had reserved some. Skipped units are not counted.",
	"kubeshare_sched_decisions_total":             "Pipeline runs of the KubeShare scheduler, one per unit decided; units passed over (kubeshare_sched_skipped_total) are not counted.",
	"kubeshare_sched_gang_admissions_total":       "Gangs admitted atomically (all members placed in one cycle).",
	"kubeshare_sched_gang_timeouts_total":         "Gangs rejected after the co-scheduling timeout expired.",
	"kubeshare_sched_latency_seconds":             "Submit-to-scheduled latency per sharePod. Records exemplars when attribution is on.",
	"kubeshare_sched_nocapacity_cycles_total":     "Scheduler cycles that found no feasible capacity.",
	"kubeshare_sched_pending_sharepods":           "SharePods currently waiting in the scheduling queue.",
	"kubeshare_sched_requeues_total":              "SharePods requeued after losing their bound pod or device.",
	"kubeshare_sched_skipped_total":               "Units a scheduling cycle passed over without a pipeline run: parked since an earlier cycle, or carrying a request identical to one that found no capacity in this cycle. High next to a low decisions count is why a saturated run was cheap.",
	"kubeshare_sched_unschedulable_sharepods":     "Pending sharePods parked right now: known to find no capacity, not re-decided until capacity is released. A sharePod that stays pending while this is non-zero is waiting for a release, not for the scheduler.",
	"kubeshare_scheduler_bind_latency_seconds":    "Native kube-scheduler submit-to-bind latency. Records exemplars when attribution is on.",
	"kubeshare_scheduler_binds_total":             "Pods bound by the native kube-scheduler.",
	"kubeshare_scheduler_pending_pods":            "Pods currently pending in the native scheduler's queue.",
	"kubeshare_sharing_admits_total":              "Client admissions per device and sharing strategy.",
	"kubeshare_sharing_devtime_ns_total":          "Virtual device time consumed per device and tenant under the active sharing strategy.",
	"kubeshare_store_checkpoint_ns":               "Virtual nanoseconds spent writing durability checkpoints.",
	"kubeshare_store_wal_records_total":           "Records appended to the durability write-ahead log.",
	"kubeshare_tenant_gpu_limit":                  "Per-tenant GPU limit from the sharePod spec.",
	"kubeshare_tenant_gpu_request":                "Per-tenant GPU request from the sharePod spec.",
	"kubeshare_tenant_token_share":                "Per-tenant share of granted token time on a device (auditor window).",
	"kubeshare_tenant_token_share_ratio":          "Per-tenant token share normalized by entitlement (auditor window).",
}

// dynamic documents the families whose names are built at runtime — the
// scanner cannot see them, so they are listed here and rendered in their
// own section with a <placeholder> segment the sync rule skips.
var dynamic = []struct{ name, typ, desc string }{
	{"kubeshare_sched_phase_<phase>_runs_total", "Counter",
		"Per-phase plugin executions in the scheduling framework (prefilter, filter, score, alloc, reserve); one counter per phase name. Pipeline runs only: a skipped unit runs no phase."},
}

func main() {
	check := flag.Bool("check", false, "verify docs/METRICS.md is current instead of rewriting it")
	out := flag.String("o", "docs/METRICS.md", "output path")
	flag.Parse()

	metrics, err := metricscan.Scan("./internal", "./cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var b strings.Builder
	b.WriteString("# Metrics reference\n\n")
	b.WriteString("Generated by `go run ./tools/metricsdoc` — do not edit by hand.\n")
	b.WriteString("`detvet -metricsdoc` fails the build when this file and the registered\n")
	b.WriteString("families diverge in either direction.\n\n")
	b.WriteString("Histograms marked as recording exemplars attach the max-latency\n")
	b.WriteString("observation's trace key and span ID per bucket when a run enables\n")
	b.WriteString("attribution (`SharingConfig.Attribution`, the latency/fig19\n")
	b.WriteString("experiments, or `kubeshare-sim profile`).\n\n")
	b.WriteString("| Name | Type | Labels | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	missing := 0
	for _, m := range metrics {
		desc, ok := descriptions[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "metricsdoc: %s has no description — add it to tools/metricsdoc\n", m.Name)
			missing++
			continue
		}
		labels := strings.Join(m.Labels, ", ")
		if labels == "" {
			labels = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", m.Name, kind(m.Type), labels, desc)
	}
	for name := range descriptions {
		found := false
		for _, m := range metrics {
			if m.Name == name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "metricsdoc: %s is described but no longer registered — remove it\n", name)
			missing++
		}
	}
	if missing > 0 {
		os.Exit(1)
	}
	b.WriteString("\n## Dynamic families\n\n")
	b.WriteString("Names built at runtime; the `<placeholder>` segment enumerates a\n")
	b.WriteString("closed set.\n\n")
	b.WriteString("| Name | Type | Labels | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, d := range dynamic {
		fmt.Fprintf(&b, "| `%s` | %s | — | %s |\n", d.name, d.typ, d.desc)
	}

	if *check {
		cur, err := os.ReadFile(*out)
		if err != nil || string(cur) != b.String() {
			fmt.Fprintf(os.Stderr, "metricsdoc: %s is stale; run `go run ./tools/metricsdoc`\n", *out)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// kind renders the registry method as the metric's kind.
func kind(method string) string {
	if strings.HasSuffix(method, "Vec") {
		method = strings.TrimSuffix(method, "Vec")
	}
	switch method {
	case "Counter":
		return "counter"
	case "Gauge", "FloatGauge":
		return "gauge"
	case "Histogram":
		return "histogram"
	}
	return strings.ToLower(method)
}
