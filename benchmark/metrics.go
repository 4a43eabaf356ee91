package main

import "kubeshare/internal/obs/attr"

// metricDef is one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none. BENCHMARK.json repeats this
// table and a test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are measured on every workload with the profiler and span
// recording off. The driver measures each run with another seed, so the
// bounds on the counted and virtual-clock metrics cover the spread between
// seeds with a factor of three to spare; at one fixed seed the virt_* metrics
// and the digest repeat exactly. The two host timings get the widest bound
// the contract allows: this sandbox's speed drifts by ±7 % between
// consecutive runs of the same seed (README, "Baseline"). Units prefixed
// virt_ are on the simulation's clock, the rest on the host's.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"mallocs_k", "k", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.06},
	{"virt_makespan_s", "virt_s", "lower", 0.04},
	{"virt_start_mean_ms", "virt_ms", "lower", 0.12},
}

// perLayer lists every metric of the traced stage, in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	// Pass (p): CPU profile shares.
	for _, l := range layers {
		add("frac", "lower", l+".cpu_self_frac")
	}
	for _, l := range inclLayers {
		add("frac", "lower", l+".cpu_incl_frac")
	}
	add("count", "higher", "profile.samples")
	add("frac", "lower", "trace_overhead_frac")
	// Pass (s): the stepped run, its spans and the obs registry.
	add("count", "lower", "sim.steps")
	add("ns", "lower", "sim.ns_per_step")
	add("virt_ms", "lower", "virt_start_p50_ms", "virt_start_p95_ms")
	add("ns", "lower", "apiserver.create_ns_p50")
	add("count", "lower", "apiserver.writes", "apiserver.reads", "apiserver.watches")
	add("ns", "lower", "apiserver.restart_ns_p50")
	add("count", "lower", "apiserver.relists", "store.wal_records")
	add("B", "lower", "store.checkpoint_bytes")
	add("count", "lower", "store.replayed_records")
	add("count", "lower", "schedfw.decisions")
	add("ratio", "lower", "schedfw.decisions_per_sharepod")
	add("count", "lower", "schedfw.nocapacity_cycles", "schedfw.batch_conflicts",
		"schedfw.filter_runs", "schedfw.score_runs")
	add("virt_ms", "lower", "schedfw.virt_place_p50_ms", "schedfw.virt_place_p95_ms")
	add("count", "lower", "core.binds", "core.vgpu_creates", "kubelet.pod_syncs", "scheduler.binds")
	add("count", "lower", "sharing.admits", "devlib.token_grants", "devlib.throttle_retries")
	add("virt_ms", "lower", "devlib.virt_token_wait_p50_ms", "devlib.virt_token_wait_p95_ms")
	add("count", "lower", "gpusim.kernel_launches")
	for _, ph := range attr.Phases {
		add("virt_ms", "lower", "attr."+string(ph)+"_ms")
	}
	add("count", "lower", "obs.spans", "obs.events", "obs.spans_dropped")
	add("frac", "lower", "obs.overhead_frac")
	// Pass (d): layer drivers, host ns per operation.
	add("ns", "lower",
		"sim.drv_ns_per_timer", "sim.drv_ns_per_switch", "sim.drv_ns_per_handoff",
		"gpusim.drv_ns_per_kernel",
		"sharing.drv_token_ns_per_admit", "sharing.drv_mps_ns_per_admit", "sharing.drv_replica_ns_per_admit",
		"devlib.drv_ns_per_launch",
		"obs.drv_ns_per_counter", "obs.drv_ns_per_observe", "obs.drv_ns_per_span",
		"core.drv_ns_per_schedule", "schedfw.drv_ns_per_decision",
		"api.drv_ns_per_sharepod_copy", "api.drv_ns_per_pod_copy",
		"store.drv_ns_per_create", "store.drv_ns_per_update", "store.drv_ns_per_list",
		"store.drv_ns_per_watch_event", "apiserver.drv_ns_per_mutate",
		"store.drv_ns_per_durable_write", "store.drv_ns_per_checkpoint_obj", "store.drv_ns_per_replay_record")
	return out
}
