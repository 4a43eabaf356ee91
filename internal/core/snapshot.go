package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
)

// Snapshot is KubeShare-Sched's incrementally maintained cluster view. The
// seed implementation rebuilt Algorithm 1's pool from full SharePod / VGPU /
// Pod / Node lists on every decision — O(cluster) per decision. The snapshot
// instead consumes watch deltas (Apply) and keeps per-vGPU residual
// bookkeeping, the per-node free-GPU counts and the pending set up to date,
// so each decision reads cached state in O(devices touched).
//
// The view is one persistent Pool: a delta only marks the devices it touched,
// and the next Pool call recomputes those and nothing else. A scheduling
// cycle borrows that pool — stages placements on it through a journaled
// transaction, rolls them back, and lets the committed ones return as
// deltas — so no cycle copies the cluster.
//
// Pool equivalence with BuildPoolWithFactor is exact: per-device residuals
// are recomputed from the device's tenant set in name order (matching the
// List order BuildPool places in) and devices are kept sorted by ID, so
// the two constructions are comparable field by field — the property the
// snapshot-vs-rebuild tests pin down.
type Snapshot struct {
	memFactor float64

	// pool is the persistent pool, current as of the last Pool call; dirty
	// lists the gpuIDs whose tenant set or existence changed since
	// (deviceEntry.dirty keeps a live entry to one mention).
	pool  *Pool
	dirty []string
	// devices is the live vGPU view: gpuID → entry with its tenant set.
	devices map[string]*deviceEntry
	// tenants maps a placed, live sharePod to its device and request, so
	// deltas can be diffed against what the snapshot already accounts for.
	tenants map[string]tenantRef
	// pending holds unplaced, non-terminated sharePods awaiting a decision;
	// queue is the same set in SortByAge's order, kept on insert and delete.
	pending map[string]*SharePod
	queue   []*SharePod
	// vgpuObj marks gpuIDs backed by a VGPU object (a device may also exist
	// solely because live sharePods reference its ID before DevMgr
	// materializes it).
	vgpuObj map[string]bool
	// vgpuPerNode counts devices per node (carved out of physical GPUs).
	vgpuPerNode map[string]int
	// nodeAlloc is each node's allocatable physical GPU count.
	nodeAlloc map[string]int
	// nodeReady mirrors node readiness; NotReady nodes contribute no free
	// physical GPUs (matching BuildPool).
	nodeReady map[string]bool
	// podGPU tracks native (non-KubeShare) GPU pods: pod name → contribution.
	podGPU map[string]podGPURef
	// nativeGPU sums podGPU per node.
	nativeGPU map[string]int

	// releaseGen counts the deltas after which a unit that found no capacity
	// might find some: a tenant cleared, a VGPU object appearing or
	// vanishing, a native GPU pod's contribution dropping, a node's
	// allocatable rising or the node turning Ready — and a tenant the
	// scheduler did not place itself (a user-assigned GPUID may open an
	// affinity group on a device the pipeline would never have picked). A new
	// pending sharePod and the scheduler's own placements (Placed) leave it
	// alone: the first touches no capacity, the second came through the
	// pipeline, whose plugins promise that reserving more never turns
	// NoCapacity into a placement (fwk's contract). The scheduler parks
	// unschedulable units against the generation. Bumping without a real
	// release merely costs a re-decision; missing a real one would strand
	// pending work, so every doubtful delta bumps.
	releaseGen uint64
}

// deviceEntry is one vGPU's incremental state.
type deviceEntry struct {
	id      string
	node    string
	tenants map[string]Request // sharePod name → request
	dirty   bool               // id is in Snapshot.dirty
}

type tenantRef struct {
	gpuID string
	node  string
	req   Request
}

type podGPURef struct {
	node  string
	count int
}

// NewSnapshot returns an empty snapshot. memFactor follows
// BuildPoolWithFactor semantics (<=0 means 1).
func NewSnapshot(memFactor float64) *Snapshot {
	if memFactor <= 0 {
		memFactor = 1
	}
	return &Snapshot{
		memFactor:   memFactor,
		pool:        &Pool{FreePhysical: map[string]int{}, MemFactor: memFactor},
		devices:     make(map[string]*deviceEntry),
		tenants:     make(map[string]tenantRef),
		pending:     make(map[string]*SharePod),
		vgpuObj:     make(map[string]bool),
		vgpuPerNode: make(map[string]int),
		nodeAlloc:   make(map[string]int),
		nodeReady:   make(map[string]bool),
		podGPU:      make(map[string]podGPURef),
		nativeGPU:   make(map[string]int),
	}
}

// ReleaseGen returns the release generation (see the field).
func (s *Snapshot) ReleaseGen() uint64 { return s.releaseGen }

// Apply folds one watch event into the snapshot. It is idempotent — the
// scheduler writes its own placements through immediately and later sees the
// same mutation again from the watch stream.
func (s *Snapshot) Apply(ev store.Event) {
	deleted := ev.Type == store.Deleted
	switch obj := ev.Object.(type) {
	case *SharePod:
		s.applySharePod(obj, deleted, true)
	case *VGPU:
		s.applyVGPU(obj, deleted)
	case *api.Pod:
		s.applyPod(obj, deleted)
	case *api.Node:
		s.applyNode(obj, deleted)
	}
}

// Placed writes through a placement the scheduler has just committed, so
// back-to-back cycles cannot double-book residuals. It is Apply for a
// sharePod, minus the release-generation bump a foreign tenant earns; the
// watch stream's later echo of the same write is then a no-op.
func (s *Snapshot) Placed(sp *SharePod) { s.applySharePod(sp, false, false) }

func (s *Snapshot) applySharePod(sp *SharePod, deleted, foreign bool) {
	name := sp.Name
	live := !deleted && !sp.Terminated()
	if live && !sp.Placed() {
		s.setPending(sp)
	} else {
		s.clearPending(name)
	}
	if live && sp.Placed() {
		s.setTenant(name, sp.Spec.GPUID, sp.Spec.NodeName, RequestOf(sp), foreign)
	} else {
		s.clearTenant(name)
	}
}

func (s *Snapshot) setPending(sp *SharePod) {
	s.clearPending(sp.Name)
	s.pending[sp.Name] = sp
	i := len(s.queue) // an arrival is mostly the youngest yet
	if i > 0 && ageLess(sp, s.queue[i-1]) {
		i = s.queueIndex(sp)
	}
	s.queue = slices.Insert(s.queue, i, sp)
}

func (s *Snapshot) clearPending(name string) {
	if old := s.pending[name]; old != nil {
		delete(s.pending, name)
		// Placements leave from the old end of a backlog that can be 100k
		// deep: close the gap from whichever side is shorter.
		if i := s.queueIndex(old); i < len(s.queue)/2 {
			copy(s.queue[1:i+1], s.queue[:i])
			s.queue[0] = nil
			s.queue = s.queue[1:]
		} else {
			s.queue = slices.Delete(s.queue, i, i+1)
		}
	}
}

// queueIndex is where sp sits, or would be inserted, in the queue.
func (s *Snapshot) queueIndex(sp *SharePod) int {
	return sort.Search(len(s.queue), func(i int) bool { return !ageLess(s.queue[i], sp) })
}

func (s *Snapshot) setTenant(name, gpuID, node string, req Request, foreign bool) {
	if prev, ok := s.tenants[name]; ok {
		if prev.gpuID == gpuID && prev.node == node && prev.req == req {
			return
		}
		s.clearTenant(name)
	}
	if foreign {
		s.releaseGen++
	}
	d := s.deviceOf(gpuID, node)
	d.tenants[name] = req
	s.markDirty(d)
	s.tenants[name] = tenantRef{gpuID: gpuID, node: node, req: req}
}

func (s *Snapshot) clearTenant(name string) {
	prev, ok := s.tenants[name]
	if !ok {
		return
	}
	delete(s.tenants, name)
	s.releaseGen++
	if d, ok := s.devices[prev.gpuID]; ok {
		delete(d.tenants, name)
		s.markDirty(d)
		s.dropDeviceIfDangling(prev.gpuID)
	}
}

func (s *Snapshot) applyVGPU(v *VGPU, deleted bool) {
	id := v.Spec.GPUID
	if deleted {
		delete(s.vgpuObj, id)
		s.dropDeviceIfDangling(id)
		s.releaseGen++
		return
	}
	if !s.vgpuObj[id] {
		// A fresh object may surface an idle device no tenant referenced.
		s.vgpuObj[id] = true
		s.releaseGen++
	}
	s.deviceOf(id, v.Spec.NodeName)
}

// deviceOf returns the entry for a gpuID, creating it (and accounting the
// node's carved-out GPU) on first sight.
func (s *Snapshot) deviceOf(id, node string) *deviceEntry {
	d, ok := s.devices[id]
	if !ok {
		d = &deviceEntry{id: id, node: node, tenants: make(map[string]Request)}
		s.devices[id] = d
		s.vgpuPerNode[node]++
		s.markDirty(d)
	}
	return d
}

// markDirty queues the device for the next Pool call — all a delta does to
// the pool, so whoever has borrowed it sees nothing move.
func (s *Snapshot) markDirty(d *deviceEntry) {
	if !d.dirty {
		d.dirty = true
		s.dirty = append(s.dirty, d.id)
	}
}

// dropDeviceIfDangling removes a device that has neither a VGPU object nor
// live tenants — mirroring BuildPool, which only materializes devices from
// one of those two sources.
func (s *Snapshot) dropDeviceIfDangling(id string) {
	d, ok := s.devices[id]
	if !ok || s.vgpuObj[id] || len(d.tenants) > 0 {
		return
	}
	delete(s.devices, id)
	s.markDirty(d)
	if s.vgpuPerNode[d.node]--; s.vgpuPerNode[d.node] == 0 {
		delete(s.vgpuPerNode, d.node)
	}
}

func (s *Snapshot) applyPod(pod *api.Pod, deleted bool) {
	// Only native GPU pods affect the free-physical calculation; holder pods
	// are already accounted as vGPUs.
	count := 0
	if !deleted && !pod.Terminated() && pod.Labels[LabelVGPUHolder] == "" && pod.Spec.NodeName != "" {
		count = int(pod.Spec.Requests()[api.ResourceGPU])
	}
	prev, had := s.podGPU[pod.Name]
	if had && prev.node == pod.Spec.NodeName && prev.count == count {
		return
	}
	if had {
		if s.nativeGPU[prev.node] -= prev.count; s.nativeGPU[prev.node] == 0 {
			delete(s.nativeGPU, prev.node)
		}
		delete(s.podGPU, pod.Name)
		if count < prev.count || pod.Spec.NodeName != prev.node {
			s.releaseGen++
		}
	}
	if count > 0 {
		s.podGPU[pod.Name] = podGPURef{node: pod.Spec.NodeName, count: count}
		s.nativeGPU[pod.Spec.NodeName] += count
	}
}

func (s *Snapshot) applyNode(node *api.Node, deleted bool) {
	if deleted {
		delete(s.nodeAlloc, node.Name)
		delete(s.nodeReady, node.Name)
		return
	}
	alloc := int(node.Status.Allocatable[api.ResourceGPU])
	if alloc > s.nodeAlloc[node.Name] || (node.Status.Ready && !s.nodeReady[node.Name]) {
		s.releaseGen++
	}
	s.nodeAlloc[node.Name] = alloc
	s.nodeReady[node.Name] = node.Status.Ready
}

// Pending returns the unplaced, non-terminated sharePods oldest first, in a
// slice of the caller's own.
func (s *Snapshot) Pending() []*SharePod { return slices.Clone(s.queue) }

// IsPending reports whether the named sharePod is in the pending set.
func (s *Snapshot) IsPending(name string) bool { return s.pending[name] != nil }

// deviceState computes the device's DeviceState from its tenant set. Tenants
// are placed in name order — the same order BuildPool encounters them in
// SharePods().List() — so the float residuals and the last-writer fields
// (Excl) agree between the two constructions.
func (d *deviceEntry) deviceState(memFactor float64) *DeviceState {
	ds := NewDeviceState(d.id, d.node)
	ds.MemCapacity = memFactor
	ds.Mem = memFactor
	names := make([]string, 0, len(d.tenants))
	for n := range d.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ds.Place(d.tenants[n])
	}
	return ds
}

// Pool returns the snapshot's persistent pool, equivalent to
// BuildPoolWithFactor against the same cluster state, after folding in the
// devices marked dirty since the last call (each recomputed from its
// tenants, inserted at its ID's place, or removed) and recounting the free
// physical GPUs. The pool is lent: the caller may stage placements on it but
// hands it back as found before the next call; what it decided comes back
// through Placed.
func (s *Snapshot) Pool(newID func() string) *Pool {
	p := s.pool
	p.NewID = newID
	for _, id := range s.dirty {
		i, found := sort.Find(len(p.Devices), func(i int) int { return strings.Compare(id, p.Devices[i].ID) })
		switch d := s.devices[id]; {
		case d != nil && found:
			d.dirty = false
			p.Restore(p.Devices[i], d.deviceState(s.memFactor))
		case d != nil:
			d.dirty = false
			p.Insert(i, d.deviceState(s.memFactor))
		case found:
			p.Remove(i)
		}
	}
	s.dirty = s.dirty[:0]
	clear(p.FreePhysical)
	for node, alloc := range s.nodeAlloc {
		if !s.nodeReady[node] {
			continue
		}
		if free := alloc - s.nativeGPU[node] - s.vgpuPerNode[node]; free > 0 {
			p.FreePhysical[node] = free
		}
	}
	return p
}

// NewPool returns a deep copy of the (folded) persistent pool for a caller
// that keeps what it places: Fig 11's Algorithm 1 run, the exhaustive
// reference driver. Not to be called while the pool is lent out.
func (s *Snapshot) NewPool(newID func() string) *Pool {
	live := s.Pool(nil)
	pool := &Pool{FreePhysical: maps.Clone(live.FreePhysical), NewID: newID, MemFactor: s.memFactor}
	for _, d := range live.Devices {
		pool.Devices = append(pool.Devices, d.Clone())
	}
	return pool
}

// DiffPools compares two Algorithm 1 pools and returns a description of the
// first divergence, or nil when they are equivalent. It backs the
// snapshot-vs-rebuild invariant: a pool materialized from the scheduler's
// incremental snapshot must be exactly the pool a full relist would build,
// including across watch drops, resumes and relists.
func DiffPools(got, want *Pool) error {
	if len(got.Devices) != len(want.Devices) {
		return fmt.Errorf("device count %d, want %d", len(got.Devices), len(want.Devices))
	}
	const eps = 1e-9
	for i, g := range got.Devices {
		w := want.Devices[i]
		if g.ID != w.ID || g.NodeName != w.NodeName {
			return fmt.Errorf("device %d: %s@%s, want %s@%s", i, g.ID, g.NodeName, w.ID, w.NodeName)
		}
		if g.Idle != w.Idle {
			return fmt.Errorf("device %s: idle=%v, want %v", g.ID, g.Idle, w.Idle)
		}
		if diff := g.Util - w.Util; diff > eps || diff < -eps {
			return fmt.Errorf("device %s: util %v, want %v", g.ID, g.Util, w.Util)
		}
		if diff := g.Mem - w.Mem; diff > eps || diff < -eps {
			return fmt.Errorf("device %s: mem %v, want %v", g.ID, g.Mem, w.Mem)
		}
		if g.MemCapacity != w.MemCapacity {
			return fmt.Errorf("device %s: memCapacity %v, want %v", g.ID, g.MemCapacity, w.MemCapacity)
		}
		if g.MemBytesUsed != w.MemBytesUsed {
			return fmt.Errorf("device %s: memBytesUsed %d, want %d", g.ID, g.MemBytesUsed, w.MemBytesUsed)
		}
		if g.Excl != w.Excl {
			return fmt.Errorf("device %s: excl %q, want %q", g.ID, g.Excl, w.Excl)
		}
		if len(g.Aff) != len(w.Aff) || len(g.Anti) != len(w.Anti) {
			return fmt.Errorf("device %s: label sets differ", g.ID)
		}
		for k := range w.Aff {
			if !g.Aff[k] {
				return fmt.Errorf("device %s: missing aff %q", g.ID, k)
			}
		}
		for k := range w.Anti {
			if !g.Anti[k] {
				return fmt.Errorf("device %s: missing anti %q", g.ID, k)
			}
		}
	}
	if len(got.FreePhysical) != len(want.FreePhysical) {
		return fmt.Errorf("freePhysical %v, want %v", got.FreePhysical, want.FreePhysical)
	}
	for node, n := range want.FreePhysical {
		if got.FreePhysical[node] != n {
			return fmt.Errorf("freePhysical[%s] = %d, want %d", node, got.FreePhysical[node], n)
		}
	}
	return nil
}
