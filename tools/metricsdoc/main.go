// Command metricsdoc generates docs/METRICS.md from the source tree: it
// scans every metric family registered with a constant name under
// ./internal and ./cmd (tools/internal/source) and renders one reference
// table of name, type, label keys and a curated description, plus a
// section for the dynamic families whose names are built at runtime.
//
// Usage:
//
//	go run ./tools/metricsdoc            # rewrite docs/METRICS.md
//	go run ./tools/metricsdoc -check     # exit 1 if the doc is stale
//
// Either way a scanned family missing from the descriptions table below, or
// a description whose family is no longer registered, fails the command —
// add the description when you add the metric. With -check, a doc that
// differs from the render fails too, so the doc cannot rot in either
// direction.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"kubeshare/tools/internal/source"
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
	"kubeshare_devlib_token_wait_seconds":         "Token-wait latency distribution per device — the sharing-pressure signal the paper's guarantees bound.",
	"kubeshare_devmgr_bind_seconds":               "DevMgr bind latency: vGPU ensure (holder pod start included) plus bound-pod creation.",
	"kubeshare_devmgr_binds_total":                "SharePod bind operations completed by DevMgr.",
	"kubeshare_devmgr_vgpu_creates_total":         "vGPUs created (holder pod acquired a physical GPU).",
	"kubeshare_devmgr_vgpu_recoveries_total":      "vGPUs recovered onto a replacement GPU after device loss.",
	"kubeshare_devmgr_vgpu_recovery_fails_total":  "vGPU recoveries that found no replacement GPU (vGPU written off).",
	"kubeshare_gpu_fairness_jain":                 "Per-GPU Jain fairness index over the auditor's sampling window.",
	"kubeshare_gpu_faults_total":                  "Simulated GPU device faults injected, per device and node.",
	"kubeshare_gpu_kernel_launches_total":         "Kernel launches executed on the simulated GPU, per device and node.",
	"kubeshare_gpu_utilization_ratio":             "Sampled busy fraction of each simulated GPU.",
	"kubeshare_kubelet_allocation_failures_total": "Device-plugin allocations the kubelet failed, per node.",
	"kubeshare_kubelet_pod_sync_seconds":          "Kubelet pod-sync latency (device allocation, image pull, container starts), per node.",
	"kubeshare_kubelet_pod_syncs_total":           "Pod syncs completed by the kubelet, per node.",
	"kubeshare_obs_open_chains":                   "SharePod causal chains that never reached a kernel launch — excluded from latency percentiles, counted here instead. Set on attribution-enabled runs.",
	"kubeshare_obs_spans_dropped_total":           "Spans dropped at the tracer's retention cap. Registered lazily on the first drop.",
	"kubeshare_reflector_relist_total":            "Full relists per consumer after apiserver restarts invalidate a watch.",
	"kubeshare_sched_batch_conflicts_total":       "Decisions that found no capacity after an earlier unit of the same batch had reserved some. Skipped units are not counted.",
	"kubeshare_sched_decisions_total":             "Algorithm 1 runs of the KubeShare scheduler, one per unit decided; units passed over (kubeshare_sched_skipped_total) are not counted.",
	"kubeshare_sched_gang_admissions_total":       "Gangs admitted atomically (all members placed in one cycle).",
	"kubeshare_sched_gang_timeouts_total":         "Gangs rejected after the co-scheduling timeout expired.",
	"kubeshare_sched_latency_seconds":             "Submit-to-scheduled latency per sharePod.",
	"kubeshare_sched_nocapacity_cycles_total":     "Scheduler cycles that found no feasible capacity.",
	"kubeshare_sched_pending_sharepods":           "SharePods currently waiting in the scheduling queue.",
	"kubeshare_sched_requeues_total":              "SharePods requeued after losing their bound pod or device.",
	"kubeshare_sched_skipped_total":               "Units a scheduling cycle passed over without deciding them: parked since an earlier cycle, or carrying a request identical to one that found no capacity in this cycle. High next to a low decisions count is why a saturated run was cheap.",
	"kubeshare_sched_unschedulable_sharepods":     "Pending sharePods parked right now: known to find no capacity, not re-decided until capacity is released. A sharePod that stays pending while this is non-zero is waiting for a release, not for the scheduler.",
	"kubeshare_scheduler_bind_latency_seconds":    "Native kube-scheduler submit-to-bind latency.",
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
// own section with a <placeholder> segment.
var dynamic = []struct{ name, typ, desc string }{
	{"kubeshare_sched_phase_<phase>_runs_total", "Counter",
		"Runs of each step of Algorithm 1 in KubeShare-Sched's decisions: prefilter (every decision; the affinity check), filter and score (a decision without an affinity label, which walks the pool), alloc (the new-vGPU fallback: NewDevice or NoCapacity), reserve (a placement committed: Assigned or NewDevice). A skipped unit runs no step."},
}

const tableHead = "| Name | Type | Labels | Description |\n|---|---|---|---|\n"

func main() {
	check := flag.Bool("check", false, "verify docs/METRICS.md is current instead of rewriting it")
	out := flag.String("o", "docs/METRICS.md", "output path")
	flag.Parse()

	metrics, err := scan("./internal", "./cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var b strings.Builder
	b.WriteString("# Metrics reference\n\n")
	b.WriteString("Generated by `go run ./tools/metricsdoc` — do not edit by hand.\n")
	b.WriteString("`go run ./tools/metricsdoc -check` fails when this file and the\n")
	b.WriteString("registered families diverge in either direction.\n\n" + tableHead)
	missing, unregistered := 0, maps.Clone(descriptions)
	for _, m := range metrics {
		delete(unregistered, m.Name)
		desc, ok := descriptions[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "metricsdoc: %s has no description — add it to tools/metricsdoc\n", m.Name)
			missing++
			continue
		}
		labels := strings.Join(m.Keys, ", ")
		if labels == "" {
			labels = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", m.Name, m.Kind, labels, desc)
	}
	for name := range unregistered {
		fmt.Fprintf(os.Stderr, "metricsdoc: %s is described but no longer registered — remove it\n", name)
		missing++
	}
	if missing > 0 {
		os.Exit(1)
	}
	b.WriteString("\n## Dynamic families\n\n")
	b.WriteString("Names built at runtime; the `<placeholder>` segment enumerates a\n")
	b.WriteString("closed set.\n\n" + tableHead)
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

// scan returns every family registered with a constant name in the
// non-test code under roots, sorted by name. When the same name is
// registered at several sites — lookups and registrations share the
// accessor methods — label keys from any *Vec site win over the unlabeled
// form.
func scan(roots ...string) ([]source.MetricCall, error) {
	prog, err := source.Load(roots[0])
	if err != nil {
		return nil, err
	}
	byName := map[string]source.MetricCall{}
	for _, p := range prog.Under(roots...) {
		for _, f := range p.Files {
			for _, c := range source.MetricCalls(f, p.Info) {
				if prev, seen := byName[c.Name]; source.MetricName.MatchString(c.Name) && (!seen || len(prev.Keys) == 0 && c.Vec) {
					byName[c.Name] = c
				}
			}
		}
	}
	return slices.SortedFunc(maps.Values(byName), func(a, b source.MetricCall) int { return strings.Compare(a.Name, b.Name) }), nil
}
