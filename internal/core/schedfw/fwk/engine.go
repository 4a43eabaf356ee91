package fwk

import "kubeshare/internal/core"

// Phase names, in pipeline order. The driver threads a counter per phase
// through the hook below, so batch cycles are visible per-phase in obs.
const (
	PhasePreFilter = "prefilter"
	PhaseFilter    = "filter"
	PhaseScore     = "score"
	PhaseAlloc     = "alloc"
	PhaseReserve   = "reserve"
)

// Phases lists the phase names in pipeline order.
var Phases = []string{PhasePreFilter, PhaseFilter, PhaseScore, PhaseAlloc, PhaseReserve}

// Engine runs one unit through the phase pipeline against a transaction.
// It is the pure decision core of the framework: no clock, no API server,
// no goroutines — the driver owns batching, timing and commits.
type Engine struct {
	pre      []PreFilterPlugin
	filters  []FilterPlugin
	scores   []ScorePlugin
	allocs   []AllocPlugin
	reserves []ReservePlugin

	// onPhase observes each phase execution (nil = no observation).
	onPhase func(phase string)

	// scratch score vectors, reused across candidates.
	bestVec []float64
	candVec []float64
}

// NewEngine sorts plugins into their phase slots by interface, preserving
// registration order within each phase. One plugin may serve several phases.
func NewEngine(plugins []Plugin) *Engine {
	e := &Engine{}
	for _, p := range plugins {
		if pf, ok := p.(PreFilterPlugin); ok {
			e.pre = append(e.pre, pf)
		}
		if f, ok := p.(FilterPlugin); ok {
			e.filters = append(e.filters, f)
		}
		if s, ok := p.(ScorePlugin); ok {
			e.scores = append(e.scores, s)
		}
		if a, ok := p.(AllocPlugin); ok {
			e.allocs = append(e.allocs, a)
		}
		if r, ok := p.(ReservePlugin); ok {
			e.reserves = append(e.reserves, r)
		}
	}
	e.bestVec = make([]float64, len(e.scores))
	e.candVec = make([]float64, len(e.scores))
	return e
}

// SetPhaseHook installs the per-phase observation callback.
func (e *Engine) SetPhaseHook(fn func(phase string)) { e.onPhase = fn }

func (e *Engine) observe(phase string) {
	if e.onPhase != nil {
		e.onPhase(phase)
	}
}

// Schedule runs one unit through pre-filter → filter → score → allocate →
// reserve against the transaction and returns the decision. Assigned and
// NewDevice decisions are already reserved onto the transaction when it
// returns; the caller commits or rolls back.
func (e *Engine) Schedule(u *Unit, t *Txn) core.Decision {
	pool := t.Pool()

	e.observe(PhasePreFilter)
	var pinned *core.DeviceState
	skipDevices := false
	candidates := pool.Devices
	for _, pf := range e.pre {
		res := pf.PreFilter(u, pool)
		if res.Reject != "" {
			return core.Decision{Outcome: core.Rejected, Reason: res.Reject}
		}
		if res.Pin != nil {
			pinned = res.Pin
		}
		if res.SkipDevices {
			skipDevices = true
		}
		if res.Candidates != nil && len(res.Candidates) < len(candidates) {
			candidates = res.Candidates
		}
	}

	// A pinned device was validated by the pre-filter that pinned it (the
	// GPU-affinity contract: the group's device passed its checks there, and
	// a group-opening idle device is taken unconditionally), so it skips
	// filter and score.
	var chosen *core.DeviceState
	if pinned != nil {
		chosen = pinned
	} else if !skipDevices {
		e.observe(PhaseFilter)
		e.observe(PhaseScore)
		for _, d := range candidates {
			if !e.filterAll(u, d) {
				continue
			}
			for i, s := range e.scores {
				e.candVec[i] = s.Score(u, d)
			}
			if chosen == nil || lexBetter(e.candVec, e.bestVec, d.ID, chosen.ID) {
				chosen = d
				copy(e.bestVec, e.candVec)
			}
		}
	}

	var dec core.Decision
	if chosen != nil {
		dec = core.Decision{Outcome: core.Assigned, GPUID: chosen.ID, NodeName: chosen.NodeName}
	} else {
		e.observe(PhaseAlloc)
		dec = core.Decision{Outcome: core.NoCapacity, Reason: core.NoFreeGPUReason}
		for _, a := range e.allocs {
			if d := a.Allocate(u, pool); d.Outcome != core.NoCapacity {
				dec = d
				break
			} else if d.Reason != "" {
				dec = d
			}
		}
	}

	if dec.Outcome == core.Assigned || dec.Outcome == core.NewDevice {
		e.observe(PhaseReserve)
		for _, r := range e.reserves {
			r.Reserve(u, t, chosen, dec)
		}
	}
	return dec
}

// Unreserve notifies every reserve plugin, newest-registered first, that a
// previously reserved decision is being rolled back (gang all-or-nothing).
// The caller rolls the transaction journal back separately.
func (e *Engine) Unreserve(u *Unit, t *Txn, dec core.Decision) {
	for i := len(e.reserves) - 1; i >= 0; i-- {
		e.reserves[i].Unreserve(u, t, dec)
	}
}

// filterAll runs every filter plugin for one (unit, device) pair.
func (e *Engine) filterAll(u *Unit, d *core.DeviceState) bool {
	for _, f := range e.filters {
		if !f.Filter(u, d) {
			return false
		}
	}
	return true
}

// lexBetter reports whether score vector a beats b lexicographically,
// falling back to the lower device ID on a full tie.
func lexBetter(a, b []float64, aID, bID string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return aID < bID
}
