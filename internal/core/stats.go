package core

import "kubeshare/internal/obs"

// Scheduling metric names. Both drivers — schedfw and the extender baseline —
// register these exact families, so dashboards, the SLO alert rules and
// ReadSchedStats see one vocabulary regardless of which driver is installed.
const (
	// MetricSchedDecisions counts pipeline runs, one per unit decided. A unit
	// the driver passes over without running the pipeline (parked, or a
	// request class already failed this cycle) is counted by schedfw's
	// kubeshare_sched_skipped_total instead.
	MetricSchedDecisions  = "kubeshare_sched_decisions_total"
	MetricSchedRequeues   = "kubeshare_sched_requeues_total"
	MetricSchedNoCapacity = "kubeshare_sched_nocapacity_cycles_total"
	MetricSchedPending    = "kubeshare_sched_pending_sharepods"
	MetricSchedLatency    = "kubeshare_sched_latency_seconds"

	MetricDevMgrRecoveries    = "kubeshare_devmgr_vgpu_recoveries_total"
	MetricDevMgrRecoveryFails = "kubeshare_devmgr_vgpu_recovery_fails_total"
)

// SchedStats is a point-in-time snapshot of the control plane's scheduling
// and recovery counters, read from the obs registry. It replaces the
// Decisions() / Requeues() / Recoveries() accessor trio: one read, one
// struct, meaningful with either scheduler driver (schedfw, extender),
// and all zeros when the cluster runs with observability off — the registry
// is the source of truth, not per-object fields.
type SchedStats struct {
	// Decisions counts Algorithm 1 invocations (one per pipeline run; units
	// the driver skips as known-unschedulable are not counted).
	Decisions int64
	// Requeues counts bound-pod-loss recoveries (placement cleared, sharePod
	// back to Pending).
	Requeues int64
	// NoCapacityCycles counts scheduling cycles that ended with every
	// pending sharePod waiting on capacity.
	NoCapacityCycles int64
	// Pending is the scheduler's current queue depth.
	Pending int64
	// Recoveries / RecoveryFails are DevMgr's vGPU recovery counters.
	Recoveries    int64
	RecoveryFails int64
}

// ReadSchedStats reads the current scheduling counters off a telemetry
// runtime. Reading is safe concurrently with the control loops (the
// counters are atomics); an obs-off runtime yields the zero struct.
func ReadSchedStats(rt *obs.Runtime) SchedStats {
	return SchedStats{
		Decisions:        rt.Counter(MetricSchedDecisions).Value(),
		Requeues:         rt.Counter(MetricSchedRequeues).Value(),
		NoCapacityCycles: rt.Counter(MetricSchedNoCapacity).Value(),
		Pending:          rt.Gauge(MetricSchedPending).Value(),
		Recoveries:       rt.Counter(MetricDevMgrRecoveries).Value(),
		RecoveryFails:    rt.Counter(MetricDevMgrRecoveryFails).Value(),
	}
}
