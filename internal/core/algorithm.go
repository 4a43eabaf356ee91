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
	// MemBytesUsed is the byte-denominated view of the committed memory:
	// byte-quantity requests add their exact size, fractional requests their
	// byte equivalent. Byte requests fit against DeviceMemBytes minus this,
	// so the two denominations deduct from one shared capacity.
	MemBytesUsed int64
	// Aff and Anti are the device's label sets, nil until Place puts a label
	// on the device (a nil set reads as empty).
	Aff  map[string]bool
	Anti map[string]bool
	Excl string
	Idle bool // no container scheduled on the device
}

// NewDeviceState returns an empty (idle, full-capacity) device.
func NewDeviceState(id, node string) *DeviceState {
	return &DeviceState{
		ID:       id,
		NodeName: node,
		Util:     1,
		Mem:      1,
		Idle:     true,
	}
}

// Fits reports whether r's resource demand fits the residuals. Idle devices
// may carry stale residual bookkeeping from the pool builder, so capacity is
// taken as full for them.
func (d *DeviceState) Fits(r Request) bool {
	if !d.FitsMemBytes(r) {
		return false
	}
	if d.Idle {
		return r.Util <= 1 && r.Mem <= 1
	}
	return r.Util <= d.Util+1e-9 && r.Mem <= d.Mem+1e-9
}

// FitsMemBytes reports whether the request's byte-denominated memory demand
// alone fits the device — vacuously true for purely fractional requests.
func (d *DeviceState) FitsMemBytes(r Request) bool {
	if r.MemBytes <= 0 {
		return true
	}
	if d.Idle {
		return r.MemBytes <= DeviceMemBytes
	}
	return d.MemBytesUsed+r.MemBytes <= DeviceMemBytes
}

// Place commits r onto the device, updating residuals and labels. Placing
// onto an idle device first resets its stale labels (a reused pool device
// starts fresh, §4.4).
func (d *DeviceState) Place(r Request) {
	if d.Idle {
		d.Util, d.Mem = 1, 1
		d.MemBytesUsed = 0
		d.Aff, d.Anti = nil, nil
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
		d.Aff = withLabel(d.Aff, r.Aff)
	}
	if r.Anti != "" {
		d.Anti = withLabel(d.Anti, r.Anti)
	}
	d.Excl = r.Excl
}

// withLabel adds label to set, making the set on its first label.
func withLabel(set map[string]bool, label string) map[string]bool {
	if set == nil {
		set = map[string]bool{}
	}
	set[label] = true
	return set
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
// value of itself (a transaction's undo, the snapshot's refresh). d takes
// over to's label sets.
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

// AddDevice creates a vGPU on node, consuming one of its free physical GPUs,
// places r on it and appends it to the pool.
func (p *Pool) AddDevice(node, id string, r Request) *DeviceState {
	p.FreePhysical[node]--
	d := NewDeviceState(id, node)
	d.Place(r)
	p.Insert(len(p.Devices), d)
	return d
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

// Decide is Algorithm 1 for one request: where r goes on pool. It changes
// nothing there (pool.NewID aside, which a NewDevice decision draws on);
// Schedule, or a transaction, commits what it returns — the chosen device
// for Assigned, nil otherwise.
//
//  1. A request with an affinity label joins the device hosting its group
//     (rejected if exclusion, anti-affinity or capacity forbid it), else
//     opens the group on the lowest idle device, else goes straight to a
//     new device.
//  2. Otherwise the candidates are the devices whose exclusion label
//     matches, that do not host the request's anti-affinity label and that
//     it fits; idle devices pass those three (their tenants are gone) but
//     must still hold a byte-quantity memory request.
//  3. Plain devices (idle, or without affinity labels) come before labelled
//     ones; best fit (least residual) among plain ones, worst fit among
//     labelled ones, equal residuals to the lowest ID. With no candidate a
//     new vGPU goes on the node with the most free physical GPUs, or the
//     request finds NoCapacity.
//
// The scheduler's parking and its per-cycle memo rest on two properties of
// this function. It is pure: the decision depends on (r, pool) alone, so
// equal requests get equal decisions against equal pools. And it is
// capacity-monotone: committing more of its own decisions onto a pool never
// turns NoCapacity into a placement; only a release can (a tenant leaving, a
// device or node appearing, or a tenant bound to a user-chosen GPUID, which
// the scheduler counts as a release). Both speak of identical requests: a
// smaller request failing says nothing about a larger one.
func Decide(r Request, pool *Pool) (Decision, *DeviceState) {
	return decide(r, pool, pool.Fitting(r))
}

// decide is Decide with step 2 walking candidates (nil = every device):
// Pool.Fitting's superset of the devices r fits, or the whole pool in tests.
// Their order does not matter, since full ties fall to the lowest ID.
func decide(r Request, pool *Pool, candidates []*DeviceState) (Decision, *DeviceState) {
	if r.Aff != "" {
		if d := FindAffinity(pool, r.Aff); d != nil {
			if d.Excl != r.Excl {
				return Decision{Outcome: Rejected, Reason: fmt.Sprintf(
					"affinity device %s has exclusion %q, request has %q", d.ID, d.Excl, r.Excl)}, nil
			}
			if r.Anti != "" && d.Anti[r.Anti] {
				return Decision{Outcome: Rejected, Reason: fmt.Sprintf(
					"affinity device %s already hosts anti-affinity label %q", d.ID, r.Anti)}, nil
			}
			if !d.Fits(r) {
				return Decision{Outcome: Rejected, Reason: fmt.Sprintf(
					"affinity device %s lacks capacity (util %.2f/%.2f, mem %.2f/%.2f)",
					d.ID, r.Util, d.Util, r.Mem, d.Mem)}, nil
			}
			return assigned(d), d
		}
		// First container with this affinity label: prefer an idle device so
		// the group has room to grow, else a new one.
		if d := FirstIdle(pool); d != nil {
			return assigned(d), d
		}
		return newDevice(pool), nil
	}

	if candidates == nil {
		candidates = pool.Devices
	}
	var best *DeviceState
	var bestLabelled bool
	var bestScore float64
	for _, d := range candidates {
		if d.Idle {
			if !d.FitsMemBytes(r) {
				continue
			}
		} else if r.Excl != d.Excl || (r.Anti != "" && d.Anti[r.Anti]) || !d.Fits(r) {
			continue
		}
		// Maximize -residual on plain devices (best fit), +residual on
		// labelled ones (worst fit); negating rather than subtracting keeps
		// equal residuals exactly equal.
		labelled := len(d.Aff) > 0 && !d.Idle
		score := -Residual(d)
		if labelled {
			score = Residual(d)
		}
		if best != nil {
			if labelled != bestLabelled {
				if labelled {
					continue
				}
			} else if score != bestScore {
				if score < bestScore {
					continue
				}
			} else if d.ID > best.ID {
				continue
			}
		}
		best, bestLabelled, bestScore = d, labelled, score
	}
	if best == nil {
		return newDevice(pool), nil
	}
	return assigned(best), best
}

func assigned(d *DeviceState) Decision {
	return Decision{Outcome: Assigned, GPUID: d.ID, NodeName: d.NodeName}
}

// newDevice proposes a fresh vGPU on the node with the most free physical
// GPUs, or NoCapacity when the cluster has none left.
func newDevice(pool *Pool) Decision {
	node := PickNewDeviceNode(pool)
	if node == "" {
		return Decision{Outcome: NoCapacity, Reason: NoFreeGPUReason}
	}
	return Decision{Outcome: NewDevice, GPUID: pool.NewID(), NodeName: node}
}

// Schedule is Algorithm 1 for one request, committed: it decides r on pool
// and places an Assigned or NewDevice decision onto it, so a sequence of
// calls sees consistent residuals.
func Schedule(r Request, pool *Pool) Decision {
	dec, d := Decide(r, pool)
	switch dec.Outcome {
	case Assigned:
		pool.Place(d, r)
	case NewDevice:
		pool.AddDevice(dec.NodeName, dec.GPUID, r)
	}
	return dec
}

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
// anything; "" means the cluster has none left.
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
