package core

import (
	"sort"
	"time"
)

// SchedulerConfig parameterizes the scheduler driver (schedfw constructs
// drivers from it via schedfw.WithConfig).
type SchedulerConfig struct {
	// MemOvercommitFactor scales each device's schedulable gpu_mem capacity
	// (default 1.0 = no over-commitment). Values >1 must be paired with
	// devlib.Config.MemOvercommit so the device library swaps working sets.
	MemOvercommitFactor float64
}

// CycleLatency models one scheduling decision (pool query + Algorithm 1 +
// API updates): the dominant part of KubeShare's extra pod-creation latency
// when no vGPU must be created (Fig 10's ≈15%). Algorithm 1 itself is O(N)
// microseconds (Fig 11); the cycle is dominated by the API round-trips,
// comparable to the default kube-scheduler's cycle.
const CycleLatency = 15 * time.Millisecond

// SortByAge orders sharePods oldest-first (name as tie-break) for FIFO
// fairness — the queue order every scheduler flavour shares.
func SortByAge(sps []*SharePod) {
	sort.Slice(sps, func(i, j int) bool { return ageLess(sps[i], sps[j]) })
}

// ageLess is SortByAge's order, which the snapshot's pending queue keeps.
func ageLess(a, b *SharePod) bool {
	if a.CreationTime != b.CreationTime {
		return a.CreationTime < b.CreationTime
	}
	return a.Name < b.Name
}
