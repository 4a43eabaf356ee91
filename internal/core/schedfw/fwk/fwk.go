// Package fwk is the scheduler's transactional view of a cycle's pool: Txn
// journals every placement it commits, so the driver can roll a gang back
// whole and hand the borrowed pool back exactly as it was. It also names the
// steps of Algorithm 1 (core.Decide) the driver counts runs of.
package fwk

// Phase names, in Algorithm 1's order: prefilter is a decision's start (step
// 1's affinity check), filter and score are steps 2 and 3's walk of the
// pool, alloc is the new-vGPU fallback and reserve the commit.
const (
	PhasePreFilter = "prefilter"
	PhaseFilter    = "filter"
	PhaseScore     = "score"
	PhaseAlloc     = "alloc"
	PhaseReserve   = "reserve"
)

// Phases lists the phase names in Algorithm 1's order.
var Phases = []string{PhasePreFilter, PhaseFilter, PhaseScore, PhaseAlloc, PhaseReserve}
