package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Request is Algorithm 1's r: a container's requirements and constraints.
type Request struct {
	Util float64 // gpu_request
	Mem  float64 // gpu_mem
	// MemBytes is the absolute memory request (gpu_mem_bytes, KAI-style).
	// Zero means the request is purely fractional; positive means Mem is 0
	// and the byte quantity drives memory fit.
	MemBytes int64
	Aff      string // sched_affinity label ("" = none)
	Anti     string // sched_anti-affinity label
	Excl     string // sched_exclusion label
}

// DeviceMemBytes is the physical memory per device the byte-quantity
// accounting assumes — the paper's 16 GB V100s, matching gpusim's
// DefaultMemoryBytes (core cannot import gpusim; the equality is pinned by
// a test).
const DeviceMemBytes = 16 << 30

// DeviceState is Algorithm 1's d: one vGPU's scheduling view. Residuals are
// fractions of the device remaining for gpu_request / gpu_mem commitments.
type DeviceState struct {
	ID       string
	NodeName string
	Util     float64 // residual computing capacity
	Mem      float64 // residual memory space
	// MemCapacity is the device's total schedulable memory fraction — 1.0
	// normally, >1.0 when GPUswap-style over-commitment is enabled.
	MemCapacity float64
	// MemBytesUsed is the byte-denominated view of the committed memory:
	// byte-quantity requests add their exact size, fractional requests their
	// byte equivalent. Byte requests fit against memBytesCap() minus this,
	// so the two denominations deduct from one shared capacity.
	MemBytesUsed int64
	Aff          map[string]bool
	Anti         map[string]bool
	Excl         string
	Idle         bool // no container scheduled on the device
}

// NewDeviceState returns an empty (idle, full-capacity) device.
func NewDeviceState(id, node string) *DeviceState {
	return &DeviceState{
		ID:          id,
		NodeName:    node,
		Util:        1,
		Mem:         1,
		MemCapacity: 1,
		Aff:         map[string]bool{},
		Anti:        map[string]bool{},
		Idle:        true,
	}
}

// Clone returns an independent copy of the device state.
func (d *DeviceState) Clone() *DeviceState {
	out := *d
	out.Aff = make(map[string]bool, len(d.Aff))
	for k, v := range d.Aff {
		out.Aff[k] = v
	}
	out.Anti = make(map[string]bool, len(d.Anti))
	for k, v := range d.Anti {
		out.Anti[k] = v
	}
	return &out
}

// Fits reports whether r's resource demand fits the residuals. Idle devices
// may carry stale residual bookkeeping from the pool builder, so capacity is
// taken as full for them.
func (d *DeviceState) Fits(r Request) bool {
	if !d.FitsMemBytes(r) {
		return false
	}
	if d.Idle {
		return r.Util <= 1 && r.Mem <= d.memCapacity()
	}
	return r.Util <= d.Util+1e-9 && r.Mem <= d.Mem+1e-9
}

// FitsMemBytes reports whether the request's byte-denominated memory demand
// alone fits the device — vacuously true for purely fractional requests.
// Exported for the schedfw MemoryFit filter plugin.
func (d *DeviceState) FitsMemBytes(r Request) bool {
	if r.MemBytes <= 0 {
		return true
	}
	if d.Idle {
		return r.MemBytes <= d.memBytesCap()
	}
	return d.MemBytesUsed+r.MemBytes <= d.memBytesCap()
}

func (d *DeviceState) memCapacity() float64 {
	if d.MemCapacity <= 0 {
		return 1
	}
	return d.MemCapacity
}

// memBytesCap is the byte-denominated schedulable memory: the physical
// device scaled by the over-commitment factor.
func (d *DeviceState) memBytesCap() int64 {
	return int64(d.memCapacity() * float64(DeviceMemBytes))
}

// Place commits r onto the device, updating residuals and labels. Placing
// onto an idle device first resets its stale labels (a reused pool device
// starts fresh, §4.4).
func (d *DeviceState) Place(r Request) {
	if d.Idle {
		d.Util, d.Mem = 1, d.memCapacity()
		d.MemBytesUsed = 0
		d.Aff = map[string]bool{}
		d.Anti = map[string]bool{}
		d.Excl = ""
		d.Idle = false
	}
	d.Util -= r.Util
	// Both memory denominations deduct from both books: a byte tenant
	// shrinks the fractional residual by its byte equivalent (so later
	// fractional tenants see the space gone) and vice versa. Purely
	// fractional pools never see a byte-driven float change, keeping legacy
	// placements bit-identical.
	mem := r.Mem
	if r.MemBytes > 0 && mem == 0 {
		mem = float64(r.MemBytes) / float64(DeviceMemBytes)
	}
	bytes := r.MemBytes
	if bytes == 0 && r.Mem > 0 {
		bytes = int64(r.Mem * float64(DeviceMemBytes))
	}
	d.Mem -= mem
	d.MemBytesUsed += bytes
	if r.Aff != "" {
		d.Aff[r.Aff] = true
	}
	if r.Anti != "" {
		d.Anti[r.Anti] = true
	}
	d.Excl = r.Excl
}

// Pool is Algorithm 1's D plus the physical capacity needed to decide
// whether a new vGPU can be created.
type Pool struct {
	Devices []*DeviceState
	// FreePhysical maps node name → physical GPUs not yet acquired as vGPUs
	// and not held by native pods.
	FreePhysical map[string]int
	// nextID serializes fresh GPUIDs for new_dev.
	NewID func() string
	// MemFactor scales each device's schedulable memory (1.0 default;
	// >1.0 permits over-commitment backed by the device library's swap).
	MemFactor float64
	// order is Devices by residual (see residualCmp), the index Fitting
	// searches. Fitting builds it for a pool assembled as a literal; from
	// then on the pool's devices change only through Place, Restore, Insert
	// and Remove, which keep it.
	order []*DeviceState
}

// residualCmp is the residual order: occupied devices by Util, idle ones
// after them all (+Inf), equal keys by ID. A NaN Util sorts first, where
// nothing fits it.
func residualCmp(a, b *DeviceState) int {
	ka, kb := a.Util, b.Util
	if a.Idle {
		ka = math.Inf(1)
	}
	if b.Idle {
		kb = math.Inf(1)
	}
	return cmp.Or(cmp.Compare(ka, kb), strings.Compare(a.ID, b.ID))
}

// Fitting returns the devices with compute room for r — every idle device
// and every occupied one whose Util passes fits' own test — as the tail of
// the residual order, found by binary search. Memory and labels are not
// looked at: the result is a superset of the devices r fits, in no order a
// caller may rely on. nil means every device.
func (p *Pool) Fitting(r Request) []*DeviceState {
	if len(p.order) != len(p.Devices) {
		p.order = append(p.order[:0], p.Devices...)
		slices.SortFunc(p.order, residualCmp)
	}
	if r.Util != r.Util {
		return nil // NaN compares false with every key, an idle device's too
	}
	return p.order[sort.Search(len(p.order), func(i int) bool {
		d := p.order[i]
		return d.Idle || r.Util <= d.Util+1e-9
	}):]
}

// position returns d's place in the order, or -1 when the pool has no index:
// none built yet, or a stale one, dropped here — d is not where its key
// says, so someone wrote its residuals directly.
func (p *Pool) position(d *DeviceState) int {
	if len(p.order) != len(p.Devices) {
		return -1
	}
	if i, ok := slices.BinarySearchFunc(p.order, d, residualCmp); ok && p.order[i] == d {
		return i
	}
	p.order = nil
	return -1
}

// moved re-sorts order[i] after its key changed, shifting only the devices
// between its old place and its new one.
func (p *Pool) moved(i int) {
	if i < 0 {
		return
	}
	o, d := p.order, p.order[i]
	j, _ := slices.BinarySearchFunc(o[:i], d, residualCmp)
	if j < i {
		copy(o[j+1:i+1], o[j:i])
	} else {
		k, _ := slices.BinarySearchFunc(o[i+1:], d, residualCmp)
		j = i + k
		copy(o[i:j], o[i+1:j+1])
	}
	o[j] = d
}

// Place commits r onto d, a device of the pool.
func (p *Pool) Place(d *DeviceState, r Request) {
	i := p.position(d)
	d.Place(r)
	p.moved(i)
}

// Restore overwrites d, a device of the pool, with an earlier or recomputed
// value of itself (a transaction's undo, the snapshot's refresh).
func (p *Pool) Restore(d, to *DeviceState) {
	i := p.position(d)
	*d = *to
	p.moved(i)
}

// Insert adds d to the pool as Devices[i].
func (p *Pool) Insert(i int, d *DeviceState) {
	if len(p.order) == len(p.Devices) {
		j, _ := slices.BinarySearchFunc(p.order, d, residualCmp)
		p.order = slices.Insert(p.order, j, d)
	}
	p.Devices = slices.Insert(p.Devices, i, d)
}

// Remove takes Devices[i] out of the pool.
func (p *Pool) Remove(i int) {
	if j := p.position(p.Devices[i]); j >= 0 {
		p.order = slices.Delete(p.order, j, j+1)
	}
	p.Devices = slices.Delete(p.Devices, i, i+1)
}

// VerifyIndex checks the residual order's invariant: exactly the pool's
// devices, sorted.
func (p *Pool) VerifyIndex() error {
	n := len(p.order)
	if !slices.IsSortedFunc(p.order, residualCmp) {
		return fmt.Errorf("residual order of %d devices is not sorted", n)
	}
	for _, d := range p.Devices {
		if p.position(d) < 0 {
			return fmt.Errorf("residual order (%d of %d devices) does not hold %s where its key says", n, len(p.Devices), d.ID)
		}
	}
	return nil
}

// Outcome classifies a scheduling decision.
type Outcome int

// Decision outcomes.
const (
	// Assigned: the request fits an existing vGPU.
	Assigned Outcome = iota
	// NewDevice: a new vGPU must be created on Decision.NodeName.
	NewDevice
	// Rejected: the locality constraints are unsatisfiable (Algorithm 1's
	// "return -1").
	Rejected
	// NoCapacity: a new vGPU is needed but no physical GPU is free; the
	// request should wait and be retried.
	NoCapacity
)

func (o Outcome) String() string {
	switch o {
	case Assigned:
		return "Assigned"
	case NewDevice:
		return "NewDevice"
	case Rejected:
		return "Rejected"
	case NoCapacity:
		return "NoCapacity"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Decision is the result of Algorithm 1 for one request.
type Decision struct {
	Outcome  Outcome
	GPUID    string
	NodeName string
	Reason   string
}

// Schedule is Algorithm 1 for one request: it decides r on pool and commits
// an Assigned or NewDevice decision onto it, so a sequence of calls sees
// consistent residuals. It is the decision KubeShare-Sched makes — the
// default plugin set through the fwk engine, in a transaction of its own —
// and package plugins, which core cannot import, installs it.
var Schedule func(r Request, pool *Pool) Decision

// FindAffinity returns the device carrying the affinity label (the pool
// invariant keeps at most one, since affinity forces co-location).
func FindAffinity(pool *Pool, label string) *DeviceState {
	for _, d := range pool.Devices {
		if !d.Idle && d.Aff[label] {
			return d
		}
	}
	return nil
}

// FirstIdle returns an idle pool device, lowest ID first for determinism.
func FirstIdle(pool *Pool) *DeviceState {
	var first *DeviceState
	for _, d := range pool.Devices {
		if d.Idle && (first == nil || d.ID < first.ID) {
			first = d
		}
	}
	return first
}

// Residual is the fit metric: remaining compute capacity after placement
// (idle devices count as full). Best fit minimizes it, worst fit maximizes.
func Residual(d *DeviceState) float64 {
	if d.Idle {
		return 1
	}
	return d.Util
}

// PickNewDeviceNode decides where a fresh vGPU would go — the node with the
// most free physical GPUs (spreading acquisition) — without committing
// anything; "" means the cluster has none left. The device itself is created
// in the framework's reserve phase, so a rollback can return the GPU.
func PickNewDeviceNode(pool *Pool) string {
	bestNode, bestFree := "", 0
	for n, free := range pool.FreePhysical {
		// Most free GPUs first, lowest name among equals: the map's iteration
		// order never shows.
		if free > bestFree || (free == bestFree && free > 0 && n < bestNode) {
			bestNode, bestFree = n, free
		}
	}
	return bestNode
}

// NoFreeGPUReason is the NoCapacity reason when no physical GPU is free.
const NoFreeGPUReason = "no free physical GPU in the cluster"
