// Package coretest holds Algorithm 1 as the paper writes it — three walks of
// the pool, with the step-3 fit policy as a knob — and the random pools and
// requests the tests drive it with, for tests and benchmarks only; no
// program code imports it. KubeShare-Sched decides through core.Decide, and
// core's equivalence tests hold that function to this reference decision
// for decision. The policy variants other than the paper's survive only
// here, as the placement ablation's baselines.
package coretest

import (
	"fmt"

	"kubeshare/internal/core"
)

// PlacementPolicy selects the fit heuristics of Algorithm 1's step 3. The
// paper's choice is best fit for unlabelled devices and worst fit for
// affinity-labelled ones.
type PlacementPolicy int

// Placement policies.
const (
	// PaperPolicy: best fit on plain devices, worst fit on labelled ones.
	PaperPolicy PlacementPolicy = iota
	// BestBest: best fit on both groups.
	BestBest
	// WorstWorst: worst fit on both groups.
	WorstWorst
	// FirstFit: first fitting device in pool order for both groups.
	FirstFit
)

// ScheduleWithPolicy is Algorithm 1 with an explicit step-3 placement
// policy. On Assigned/NewDevice it commits the placement onto the pool, so a
// sequence of calls sees consistent residuals.
func ScheduleWithPolicy(r core.Request, pool *core.Pool, policy PlacementPolicy) core.Decision {
	// Step 1: affinity-directed placement.
	if r.Aff != "" {
		if d := core.FindAffinity(pool, r.Aff); d != nil {
			if d.Excl != r.Excl {
				return core.Decision{Outcome: core.Rejected, Reason: fmt.Sprintf(
					"affinity device %s has exclusion %q, request has %q", d.ID, d.Excl, r.Excl)}
			}
			if r.Anti != "" && d.Anti[r.Anti] {
				return core.Decision{Outcome: core.Rejected, Reason: fmt.Sprintf(
					"affinity device %s already hosts anti-affinity label %q", d.ID, r.Anti)}
			}
			if !d.Fits(r) {
				return core.Decision{Outcome: core.Rejected, Reason: fmt.Sprintf(
					"affinity device %s lacks capacity (util %.2f/%.2f, mem %.2f/%.2f)",
					d.ID, r.Util, d.Util, r.Mem, d.Mem)}
			}
			d.Place(r)
			return core.Decision{Outcome: core.Assigned, GPUID: d.ID, NodeName: d.NodeName}
		}
		// First container with this affinity label: prefer an idle device so
		// the group has room to grow, else a new one.
		if d := core.FirstIdle(pool); d != nil {
			d.Place(r)
			return core.Decision{Outcome: core.Assigned, GPUID: d.ID, NodeName: d.NodeName}
		}
		return newDevice(r, pool)
	}

	// Step 2: filter by exclusion, anti-affinity and resources. Idle
	// devices always qualify — their previous tenants are gone.
	var candidates []*core.DeviceState
	for _, d := range pool.Devices {
		if !d.Idle {
			if (r.Excl != "" || d.Excl != "") && r.Excl != d.Excl {
				continue
			}
			if r.Anti != "" && d.Anti[r.Anti] {
				continue
			}
			if !d.Fits(r) {
				continue
			}
		}
		candidates = append(candidates, d)
	}

	// Step 3: placement among devices without affinity labels first, then
	// among affinity-labelled ones, then a new device.
	var plain, labelled []*core.DeviceState
	for _, d := range candidates {
		if len(d.Aff) == 0 || d.Idle {
			plain = append(plain, d)
		} else {
			labelled = append(labelled, d)
		}
	}
	// Best fit packs existing devices tight (idle ones, residual 1, come
	// last); worst fit leaves the most room next to existing affinity groups.
	bestFit := func(a, b float64) bool { return a < b }
	worstFit := func(a, b float64) bool { return a > b }
	plainFit, labelledFit := bestFit, worstFit
	switch policy {
	case BestBest:
		labelledFit = bestFit
	case WorstWorst:
		plainFit = worstFit
	case FirstFit:
		plainFit, labelledFit = nil, nil
	}
	d := fit(r, plain, plainFit)
	if d == nil {
		d = fit(r, labelled, labelledFit)
	}
	if d == nil {
		return newDevice(r, pool)
	}
	d.Place(r)
	return core.Decision{Outcome: core.Assigned, GPUID: d.ID, NodeName: d.NodeName}
}

// fit picks the fitting device whose residual wins under better, equal
// residuals falling to the lowest ID — or, with better nil, the first
// fitting device in pool order.
func fit(r core.Request, ds []*core.DeviceState, better func(a, b float64) bool) *core.DeviceState {
	var pick *core.DeviceState
	for _, d := range ds {
		if !d.Fits(r) {
			continue
		}
		if better == nil {
			return d
		}
		if pick == nil || better(core.Residual(d), core.Residual(pick)) ||
			(core.Residual(d) == core.Residual(pick) && d.ID < pick.ID) {
			pick = d
		}
	}
	return pick
}

// newDevice decides where a fresh vGPU goes and commits it onto the pool,
// or NoCapacity when the cluster has no physical GPU left.
func newDevice(r core.Request, pool *core.Pool) core.Decision {
	node := core.PickNewDeviceNode(pool)
	if node == "" {
		return core.Decision{Outcome: core.NoCapacity, Reason: core.NoFreeGPUReason}
	}
	pool.FreePhysical[node]--
	id := pool.NewID()
	d := core.NewDeviceState(id, node)
	d.Place(r)
	pool.Devices = append(pool.Devices, d)
	return core.Decision{Outcome: core.NewDevice, GPUID: id, NodeName: node}
}

var (
	affLabels  = []string{"", "g1", "g2", "g3"}
	antiLabels = []string{"", "t1", "t2"}
	exclLabels = []string{"", "x1", "x2"}
)

// Rand is the part of a *math/rand.Rand the generators below draw from.
type Rand interface{ Intn(n int) int }

// RandomRequest draws a fractional request with shares in {0.05, …, 1} and
// each label from a small vocabulary (or none), so labels collide often.
func RandomRequest(rng Rand) core.Request {
	return core.Request{
		Util: float64(rng.Intn(20)+1) / 20,
		Mem:  float64(rng.Intn(20)+1) / 20,
		Aff:  affLabels[rng.Intn(len(affLabels))],
		Anti: antiLabels[rng.Intn(len(antiLabels))],
		Excl: exclLabels[rng.Intn(len(exclLabels))],
	}
}

// RandomPools builds n structurally identical pools by replaying one random
// construction onto each: devices carved on random nodes, each loaded with a
// few placed requests (or left idle), plus free physical headroom. Each pool
// draws fresh GPUIDs from its own serial counter, so all see one sequence.
func RandomPools(rng Rand, n int) []*core.Pool {
	pools := make([]*core.Pool, n)
	for i := range pools {
		serial := 0
		pools[i] = &core.Pool{FreePhysical: map[string]int{},
			NewID: func() string { serial++; return fmt.Sprintf("vgpu-%04d", serial) }}
	}
	nodes := rng.Intn(4) + 1
	for n := 0; n < nodes; n++ {
		node := fmt.Sprintf("node%d", n)
		free := rng.Intn(4)
		for g := 0; g < rng.Intn(4); g++ {
			id := fmt.Sprintf("gpu-%s-%d", node, g)
			var reqs []core.Request
			for t := 0; t < rng.Intn(3); t++ {
				reqs = append(reqs, RandomRequest(rng))
			}
			for _, p := range pools {
				d := core.NewDeviceState(id, node)
				for _, r := range reqs {
					if d.Fits(r) {
						d.Place(r)
					}
				}
				p.Devices = append(p.Devices, d)
			}
		}
		for _, p := range pools {
			if free > 0 {
				p.FreePhysical[node] = free
			}
		}
	}
	return pools
}
