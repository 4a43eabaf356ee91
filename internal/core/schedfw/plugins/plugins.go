// Package plugins is Algorithm 1 as the scheduling framework's default
// plugin set — the one implementation KubeShare-Sched runs, installed as
// core.Schedule too:
//
//   - GPUAffinity (pre-filter): step 1's affinity-directed placement — pin
//     the group's device (rejecting on exclusion/anti-affinity/capacity
//     conflicts), pin the lowest idle device for a group's first member, or
//     skip straight to allocation.
//   - Exclusion, AntiAffinity, ResourceFit (filters): step 2's candidate
//     filter; idle devices always qualify (their previous tenants are gone).
//     ResourceFit is a pre-filter too: it narrows the walk to the devices
//     with compute room (core.Pool.Fitting), which its own Filter then
//     judges like any other.
//   - LocalityBand, LocalityFit (scores): step 3's placement policy as a
//     lexicographic score — plain devices before affinity-labelled ones,
//     best fit within plain (maximize -residual), worst fit within labelled
//     (maximize residual); full ties fall to the lowest device ID.
//   - NodeSpread (alloc): the new-vGPU fallback on the node with the most
//     free physical GPUs.
//   - DeviceCommit (reserve): the only writer — commits Assigned/NewDevice
//     decisions onto the cycle's pool transaction.
//
// The test-only reference, coretest.ScheduleWithPolicy, is Algorithm 1 as the
// paper writes it, three walks of the pool; the engine must decide exactly
// what it decides (TestEngineMatchesAlgorithm1).
//
// Plugins never touch the API server: tools/detvet rejects apiserver/store
// imports in plugin packages, keeping all commits on the framework's
// reserve/commit path.
package plugins

import (
	"fmt"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
)

func init() {
	core.Schedule = func(r core.Request, pool *core.Pool) core.Decision {
		return fwk.NewEngine(Default()).Schedule(&fwk.Unit{Req: r}, fwk.NewTxn(pool))
	}
}

// Default returns the default plugin set — Algorithm 1 in phases, in the
// paper's policy (best fit on plain devices, worst fit on labelled ones).
func Default() []fwk.Plugin {
	return []fwk.Plugin{
		GPUAffinity{},
		Exclusion{},
		AntiAffinity{},
		ResourceFit{},
		MemoryFit{},
		LocalityBand{},
		LocalityFit{},
		NodeSpread{},
		DeviceCommit{},
	}
}

// GPUAffinity is Algorithm 1 step 1: affinity-directed placement. A unit
// carrying an affinity label either joins the device already hosting its
// group (pinned; rejected if exclusion, anti-affinity or capacity forbid
// it), opens the group on the lowest idle device, or — with no idle device
// left — goes straight to new-device allocation.
type GPUAffinity struct{}

// Name implements fwk.Plugin.
func (GPUAffinity) Name() string { return "gpu-affinity" }

// PreFilter implements fwk.PreFilterPlugin.
func (GPUAffinity) PreFilter(u *fwk.Unit, pool *core.Pool) fwk.PreFilterResult {
	r := u.Req
	if r.Aff == "" {
		return fwk.PreFilterResult{}
	}
	if d := core.FindAffinity(pool, r.Aff); d != nil {
		if d.Excl != r.Excl {
			return fwk.PreFilterResult{Reject: fmt.Sprintf(
				"affinity device %s has exclusion %q, request has %q", d.ID, d.Excl, r.Excl)}
		}
		if r.Anti != "" && d.Anti[r.Anti] {
			return fwk.PreFilterResult{Reject: fmt.Sprintf(
				"affinity device %s already hosts anti-affinity label %q", d.ID, r.Anti)}
		}
		if !d.Fits(r) {
			return fwk.PreFilterResult{Reject: fmt.Sprintf(
				"affinity device %s lacks capacity (util %.2f/%.2f, mem %.2f/%.2f)",
				d.ID, r.Util, d.Util, r.Mem, d.Mem)}
		}
		return fwk.PreFilterResult{Pin: d}
	}
	// First container with this affinity label: prefer an idle device so the
	// group has room to grow, else a new one.
	if d := core.FirstIdle(pool); d != nil {
		return fwk.PreFilterResult{Pin: d}
	}
	return fwk.PreFilterResult{SkipDevices: true}
}

// Exclusion filters devices whose exclusion label conflicts with the
// unit's. Idle devices always pass — their previous tenants are gone.
type Exclusion struct{}

// Name implements fwk.Plugin.
func (Exclusion) Name() string { return "exclusion" }

// Filter implements fwk.FilterPlugin.
func (Exclusion) Filter(u *fwk.Unit, d *core.DeviceState) bool {
	if d.Idle {
		return true
	}
	return (u.Req.Excl == "" && d.Excl == "") || u.Req.Excl == d.Excl
}

// AntiAffinity filters devices already hosting the unit's anti-affinity
// label.
type AntiAffinity struct{}

// Name implements fwk.Plugin.
func (AntiAffinity) Name() string { return "anti-affinity" }

// Filter implements fwk.FilterPlugin.
func (AntiAffinity) Filter(u *fwk.Unit, d *core.DeviceState) bool {
	if d.Idle {
		return true
	}
	return u.Req.Anti == "" || !d.Anti[u.Req.Anti]
}

// ResourceFit filters devices whose residual compute or memory cannot hold
// the unit.
type ResourceFit struct{}

// Name implements fwk.Plugin.
func (ResourceFit) Name() string { return "resource-fit" }

// PreFilter implements fwk.PreFilterPlugin: only the devices with compute
// room for the unit — each of which Filter still judges — are worth a look.
func (ResourceFit) PreFilter(u *fwk.Unit, pool *core.Pool) fwk.PreFilterResult {
	return fwk.PreFilterResult{Candidates: pool.Fitting(u.Req)}
}

// Filter implements fwk.FilterPlugin.
func (ResourceFit) Filter(u *fwk.Unit, d *core.DeviceState) bool {
	if d.Idle {
		return true
	}
	return d.Fits(u.Req)
}

// MemoryFit filters devices that cannot hold the unit's absolute memory
// request (gpu_mem_bytes) against the byte-denominated residual. Fractional
// units pass through untouched, so legacy placements are identical; idle
// devices are handled inside FitsMemBytes (full byte capacity) rather than
// auto-passing, because a byte demand can exceed even an empty device.
// Partially redundant with ResourceFit (Fits folds the same check in for
// Algorithm-1 equivalence), but as its own phase the rejection is visible
// per-plugin in the framework's filter accounting.
type MemoryFit struct{}

// Name implements fwk.Plugin.
func (MemoryFit) Name() string { return "memory-fit" }

// Filter implements fwk.FilterPlugin.
func (MemoryFit) Filter(u *fwk.Unit, d *core.DeviceState) bool {
	return d.FitsMemBytes(u.Req)
}

// LocalityBand is the precedence half of step 3's policy: plain devices
// (no affinity labels, or idle) strictly before affinity-labelled ones.
// Registered before LocalityFit, its 1/0 score dominates lexicographically.
type LocalityBand struct{}

// Name implements fwk.Plugin.
func (LocalityBand) Name() string { return "locality-band" }

// Score implements fwk.ScorePlugin.
func (LocalityBand) Score(u *fwk.Unit, d *core.DeviceState) float64 {
	if len(d.Aff) == 0 || d.Idle {
		return 1
	}
	return 0
}

// LocalityFit is the fit half of step 3's policy, breaking LocalityBand's
// ties: best fit (smallest residual) within the plain band, worst fit
// (largest residual) within the labelled band — the fragmentation-vs-growth
// trade the paper picks. Scores negate rather than subtract residuals, so
// equal residuals tie exactly and fall to the lowest device ID.
type LocalityFit struct{}

// Name implements fwk.Plugin.
func (LocalityFit) Name() string { return "locality-fit" }

// Score implements fwk.ScorePlugin.
func (LocalityFit) Score(u *fwk.Unit, d *core.DeviceState) float64 {
	if len(d.Aff) == 0 || d.Idle {
		return -core.Residual(d) // maximize -residual == best fit
	}
	return core.Residual(d) // maximize residual == worst fit
}

// NodeSpread proposes a fresh vGPU on the node with the most free physical
// GPUs (spreading acquisition); NoCapacity when the cluster has none left.
// It only decides — DeviceCommit performs the creation in reserve, so a
// gang rollback can return the physical GPU.
type NodeSpread struct{}

// Name implements fwk.Plugin.
func (NodeSpread) Name() string { return "node-spread" }

// Allocate implements fwk.AllocPlugin.
func (NodeSpread) Allocate(u *fwk.Unit, pool *core.Pool) core.Decision {
	node := core.PickNewDeviceNode(pool)
	if node == "" {
		return core.Decision{Outcome: core.NoCapacity, Reason: core.NoFreeGPUReason}
	}
	return core.Decision{Outcome: core.NewDevice, GPUID: pool.NewID(), NodeName: node}
}

// DeviceCommit is the reserve-phase writer: it commits Assigned decisions
// onto their device and materializes NewDevice decisions, both through the
// cycle transaction so the framework can roll them back.
type DeviceCommit struct{}

// Name implements fwk.Plugin.
func (DeviceCommit) Name() string { return "device-commit" }

// Reserve implements fwk.ReservePlugin.
func (DeviceCommit) Reserve(u *fwk.Unit, t *fwk.Txn, d *core.DeviceState, dec core.Decision) {
	switch dec.Outcome {
	case core.Assigned:
		t.Place(d, u.Req)
	case core.NewDevice:
		t.AddDevice(dec.NodeName, dec.GPUID, u.Req)
	}
}
