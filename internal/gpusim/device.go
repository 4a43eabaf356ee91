// Package gpusim models GPU devices for the simulated cluster.
//
// A Device executes kernels under processor sharing: when n kernels from any
// number of contexts are resident, each progresses at 1/n of the device's
// rate — the time-slicing behaviour of a real GPU multiplexing contexts.
// The device tracks busy time (the basis of NVML-style utilization
// reporting), per-context execution time (the basis of usage attribution),
// and device memory with hard physical capacity.
//
// This package is the substitution for the paper's Tesla V100s: the vGPU
// device library intercepts the same call surface (see internal/cuda) and
// throttles kernels exactly as the real library throttles CUDA calls.
package gpusim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// ErrOutOfMemory is returned when an allocation exceeds physical device
// memory (or, through the device library, a container's memory share).
var ErrOutOfMemory = errors.New("gpusim: out of device memory")

// ErrDeviceFault is the Xid-style uncorrectable device error: it kills the
// kernels in flight and poisons every open context. Poisoned contexts fail
// all further operations and must be closed; the device accepts new
// contexts again after ClearFault (the driver-level device reset).
var ErrDeviceFault = errors.New("gpusim: device fault (Xid)")

// DefaultMemoryBytes matches the paper's 16 GB V100s.
const DefaultMemoryBytes = 16 << 30

// DefaultCopyBandwidth is the host-device copy bandwidth (PCIe gen3 x16).
const DefaultCopyBandwidth = 12 << 30 // bytes per second

// Device is one simulated GPU.
type Device struct {
	env      *sim.Env
	uuid     string
	node     string
	memCap   int64
	memUsed  int64
	copyBW   int64
	faulted  bool
	contexts map[*Context]bool

	active     []*kernel
	lastUpdate time.Duration
	busyAccum  time.Duration
	completion sim.Timer
	// completeFn is onCompletion bound once; scheduling the method value
	// directly would allocate a closure per reschedule.
	completeFn func()
	// freeKernels pools retired kernel structs; launch/retire churn is the
	// hottest allocation site in cluster-scale experiments.
	freeKernels []*kernel

	// Telemetry (no-op handles when the cluster runs without obs).
	recorder *obs.Recorder
	launches *obs.Counter
	faults   *obs.Counter
}

// kernel is a resident unit of GPU work.
type kernel struct {
	ctx       *Context
	remaining float64 // seconds of exclusive-device work left
	weight    float64 // processor-sharing weight (the context's at launch)
	done      *sim.Event
}

// Config parameterizes a device.
type Config struct {
	Index         int
	NodeName      string // part of the UUID derivation for uniqueness
	MemoryBytes   int64  // defaults to DefaultMemoryBytes
	CopyBandwidth int64  // defaults to DefaultCopyBandwidth
	// Obs is the cluster telemetry runtime; nil disables device telemetry.
	Obs *obs.Runtime
}

// NewDevice creates a device with a deterministic UUID derived from
// (NodeName, Index), mirroring how NVIDIA assigns stable per-board UUIDs.
func NewDevice(env *sim.Env, cfg Config) *Device {
	if cfg.MemoryBytes <= 0 {
		cfg.MemoryBytes = DefaultMemoryBytes
	}
	if cfg.CopyBandwidth <= 0 {
		cfg.CopyBandwidth = DefaultCopyBandwidth
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", cfg.NodeName, cfg.Index)
	uuid := fmt.Sprintf("GPU-%016x", h.Sum64())
	// Per-device children of the labeled families, fetched once so the
	// kernel-launch hot path touches only a cached atomic.
	d := &Device{
		env:      env,
		uuid:     uuid,
		node:     cfg.NodeName,
		memCap:   cfg.MemoryBytes,
		copyBW:   cfg.CopyBandwidth,
		contexts: make(map[*Context]bool),
		recorder: cfg.Obs.EventSource("gpusim"),
		launches: cfg.Obs.CounterVec("kubeshare_gpu_kernel_launches_total", "gpu_uuid", "node").With(uuid, cfg.NodeName),
		faults:   cfg.Obs.CounterVec("kubeshare_gpu_faults_total", "gpu_uuid", "node").With(uuid, cfg.NodeName),
	}
	d.completeFn = d.onCompletion
	return d
}

// UUID returns the device's stable unique identifier.
func (d *Device) UUID() string { return d.uuid }

// Node returns the name of the node hosting the device.
func (d *Device) Node() string { return d.node }

// MemoryBytes returns the physical memory capacity.
func (d *Device) MemoryBytes() int64 { return d.memCap }

// MemoryUsed returns the currently allocated memory across all contexts.
func (d *Device) MemoryUsed() int64 { return d.memUsed }

// ActiveKernels returns the number of resident kernels right now.
func (d *Device) ActiveKernels() int { return len(d.active) }

// ActiveContexts returns the number of open contexts.
func (d *Device) ActiveContexts() int { return len(d.contexts) }

// totalWeight sums the resident kernels' processor-sharing weights. With
// unit weights (the default) the sum is exactly float64(len(d.active)),
// which keeps the sharing arithmetic bit-identical to the unweighted form.
func (d *Device) totalWeight() float64 {
	w := 0.0
	for _, k := range d.active {
		w += k.weight
	}
	return w
}

// update advances processor-sharing bookkeeping to the current instant.
// Each resident kernel progresses at weight/totalWeight of the device rate
// — generalized processor sharing. Under MPS-overlap sharing the weights
// are the tenants' gpu_request fractions (the SM/compute-fraction model);
// everywhere else every weight is 1.0 and this reduces exactly to the
// classic 1/n split (multiplying by 1.0 and dividing by an integer-valued
// sum are exact in IEEE 754).
func (d *Device) update() {
	now := d.env.Now()
	elapsed := now - d.lastUpdate
	d.lastUpdate = now
	if elapsed <= 0 || len(d.active) == 0 {
		return
	}
	totalW := d.totalWeight()
	secs := elapsed.Seconds()
	for _, k := range d.active {
		share := secs * k.weight / totalW
		k.remaining -= share
		k.ctx.devTime += time.Duration(share * float64(time.Second))
	}
	d.busyAccum += elapsed
}

// reschedule (re)arms the completion timer for the earliest-finishing
// kernel. A kernel with remaining work r and weight w finishes (at the
// current population) after r*totalW/w seconds; with unit weights this is
// the classic r*n, bit-identical to the unweighted form.
func (d *Device) reschedule() {
	d.completion.Stop()
	if len(d.active) == 0 {
		return
	}
	totalW := d.totalWeight()
	minEff := d.active[0].remaining * totalW / d.active[0].weight
	for _, k := range d.active[1:] {
		if eff := k.remaining * totalW / k.weight; eff < minEff {
			minEff = eff
		}
	}
	if minEff < 0 {
		minEff = 0
	}
	wait := time.Duration(minEff * float64(time.Second))
	d.completion = d.env.After(wait, d.completeFn)
}

// onCompletion retires finished kernels and rearms the timer.
func (d *Device) onCompletion() {
	d.update()
	const eps = 1e-9 // one nanosecond of work
	still := d.active[:0]
	for _, k := range d.active {
		if k.remaining <= eps {
			// Trigger only schedules the waiters' wakeups, so the kernel
			// struct can be recycled immediately; the done event escaped to
			// the launcher and stays owned by it.
			k.done.Trigger(nil)
			k.done = nil
			k.ctx = nil
			d.freeKernels = append(d.freeKernels, k)
		} else {
			still = append(still, k)
		}
	}
	for i := len(still); i < len(d.active); i++ {
		d.active[i] = nil
	}
	d.active = still
	d.reschedule()
}

// launch makes a kernel resident and returns its completion event.
func (d *Device) launch(ctx *Context, work time.Duration) *sim.Event {
	done := sim.NewEvent(d.env)
	d.launchInto(ctx, work, done)
	return done
}

// launchInto is launch with a caller-provided completion event, so the
// synchronous path can reuse one event per context instead of allocating.
func (d *Device) launchInto(ctx *Context, work time.Duration, done *sim.Event) {
	d.update()
	d.launches.Inc()
	if work <= 0 {
		done.Trigger(nil)
		return
	}
	var k *kernel
	if n := len(d.freeKernels); n > 0 {
		k = d.freeKernels[n-1]
		d.freeKernels[n-1] = nil
		d.freeKernels = d.freeKernels[:n-1]
	} else {
		k = &kernel{}
	}
	k.ctx = ctx
	k.remaining = work.Seconds()
	k.weight = ctx.weight
	k.done = done
	d.active = append(d.active, k)
	d.reschedule()
}

// InjectFault raises an Xid-style fault: every resident kernel completes
// with ErrDeviceFault, every open context is poisoned, and new launches and
// allocations fail until ClearFault. Memory accounting is left to the
// owners — poisoned contexts release their memory when closed, exactly as
// a real process cleans up after a device error.
func (d *Device) InjectFault() {
	d.update()
	for _, k := range d.active {
		k.done.Trigger(ErrDeviceFault)
		k.done = nil
		k.ctx = nil
		d.freeKernels = append(d.freeKernels, k)
	}
	for i := range d.active {
		d.active[i] = nil
	}
	d.active = d.active[:0]
	d.completion.Stop()
	d.faulted = true
	poisoned := len(d.contexts)
	for ctx := range d.contexts {
		ctx.faulted = true
	}
	d.faults.Inc()
	d.recorder.Eventf("GPU", d.uuid, obs.EventWarning, "DeviceFault",
		"Xid fault: %d contexts poisoned", poisoned)
}

// InjectContextFault raises an Xid-style fault scoped to one context — the
// failure model of MPS-overlap sharing, where tenants share a single device
// context space and isolation is limited. The victim's resident kernels die
// with ErrDeviceFault and the victim is poisoned; if the victim had kernels
// in flight, every context with co-resident kernels at that instant is
// poisoned too (their kernels also die). Contexts with nothing resident are
// spared, and the device itself stays serviceable — no ClearFault needed.
// Under token or replica gating at most one tenant's kernels are resident
// per slot, so the same fault has a far smaller blast radius there.
func (d *Device) InjectContextFault(victim *Context) {
	if victim == nil || victim.dev != d || victim.closed {
		return
	}
	d.update()
	victimActive := false
	for _, k := range d.active {
		if k.ctx == victim {
			victimActive = true
			break
		}
	}
	poison := map[*Context]bool{victim: true}
	if victimActive {
		for _, k := range d.active {
			poison[k.ctx] = true
		}
	}
	still := d.active[:0]
	for _, k := range d.active {
		if poison[k.ctx] {
			k.done.Trigger(ErrDeviceFault)
			k.done = nil
			k.ctx = nil
			d.freeKernels = append(d.freeKernels, k)
		} else {
			still = append(still, k)
		}
	}
	for i := len(still); i < len(d.active); i++ {
		d.active[i] = nil
	}
	d.active = still
	for ctx := range poison {
		ctx.faulted = true
	}
	d.faults.Inc()
	d.recorder.Eventf("GPU", d.uuid, obs.EventWarning, "ContextFault",
		"Xid fault in context %s: %d contexts poisoned", victim.owner, len(poison))
	d.reschedule()
}

// ClearFault resets the device after a fault. Contexts poisoned by the
// fault stay poisoned — their owners must close them and open fresh ones.
func (d *Device) ClearFault() {
	if d.faulted {
		d.recorder.Eventf("GPU", d.uuid, obs.EventNormal, "DeviceFaultCleared", "device reset")
	}
	d.faulted = false
}

// Faulted reports whether the device is currently in the faulted state.
func (d *Device) Faulted() bool { return d.faulted }

// BusyTime returns the accumulated device-busy time up to the current
// instant.
func (d *Device) BusyTime() time.Duration {
	d.update()
	return d.busyAccum
}

// CopyDuration returns the host↔device transfer time for n bytes.
func (d *Device) CopyDuration(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(d.copyBW) * float64(time.Second))
}

// OpenContext creates an execution context owned by the named principal
// (a container id in the cluster).
func (d *Device) OpenContext(owner string) *Context {
	ctx := &Context{dev: d, owner: owner, weight: 1}
	d.contexts[ctx] = true
	return ctx
}

// Context is one principal's execution and memory state on a device.
type Context struct {
	dev     *Device
	owner   string
	memUsed int64
	// memLimit caps this context's allocations (0 = device capacity only);
	// the enforcement point of absolute gpu_mem_bytes requests.
	memLimit int64
	// weight is the processor-sharing weight stamped onto launched kernels
	// (1.0 default; MPS-overlap sets the tenant's compute fraction).
	weight  float64
	devTime time.Duration
	// syncEv is the reusable completion event for synchronous Launch; it
	// never escapes the Launch call, so one event serves every kernel.
	syncEv  *sim.Event
	closed  bool
	faulted bool
}

// SetComputeWeight sets the processor-sharing weight for kernels launched
// from this context — the SM/compute-fraction model of MPS-overlap sharing
// (a tenant with weight 0.3 gets 0.3/Σweights of the device under
// contention). Non-positive weights are ignored; kernels already resident
// keep the weight they launched with.
func (c *Context) SetComputeWeight(w float64) {
	if w > 0 {
		c.weight = w
	}
}

// SetMemLimit caps the context's device-memory allocations at n bytes
// (0 removes the cap). This is gpusim's enforcement of absolute
// gpu_mem_bytes requests: unlike the frontend's fractional share check,
// the limit lives in the device's own memory model.
func (c *Context) SetMemLimit(n int64) {
	if n >= 0 {
		c.memLimit = n
	}
}

// Faulted reports whether this context was poisoned by a device fault.
func (c *Context) Faulted() bool { return c.faulted }

// Owner returns the principal that opened the context.
func (c *Context) Owner() string { return c.owner }

// Device returns the underlying device.
func (c *Context) Device() *Device { return c.dev }

// MemUsed returns this context's allocated device memory.
func (c *Context) MemUsed() int64 { return c.memUsed }

// DeviceTime returns the execution time attributed to this context under
// processor sharing, up to the current instant.
func (c *Context) DeviceTime() time.Duration {
	c.dev.update()
	return c.devTime
}

// Alloc reserves n bytes of device memory.
func (c *Context) Alloc(n int64) error {
	if c.closed {
		return errors.New("gpusim: context closed")
	}
	if c.faulted || c.dev.faulted {
		return ErrDeviceFault
	}
	if n < 0 {
		return errors.New("gpusim: negative allocation")
	}
	if c.memLimit > 0 && c.memUsed+n > c.memLimit {
		return ErrOutOfMemory
	}
	if c.dev.memUsed+n > c.dev.memCap {
		return ErrOutOfMemory
	}
	c.dev.memUsed += n
	c.memUsed += n
	return nil
}

// Free releases n bytes previously allocated by this context.
func (c *Context) Free(n int64) error {
	if n < 0 || n > c.memUsed {
		return fmt.Errorf("gpusim: free of %d bytes exceeds context usage %d", n, c.memUsed)
	}
	c.memUsed -= n
	c.dev.memUsed -= n
	return nil
}

// LaunchAsync submits a kernel of the given exclusive-device duration and
// returns its completion event. The event's value is nil on success or the
// error (context closed, device fault) that killed the kernel.
func (c *Context) LaunchAsync(work time.Duration) *sim.Event {
	if c.closed || c.faulted || c.dev.faulted {
		ev := sim.NewEvent(c.dev.env)
		if c.closed {
			ev.Trigger(errors.New("gpusim: context closed"))
		} else {
			ev.Trigger(ErrDeviceFault)
		}
		return ev
	}
	return c.dev.launch(c, work)
}

// Launch submits a kernel and parks p until it completes, returning nil or
// the error that killed the kernel (a device fault mid-flight). The
// completion event is cached on the context and reused (a launch on an open
// context is the serving hot path), so steady-state synchronous kernels
// allocate nothing.
func (c *Context) Launch(p *sim.Proc, work time.Duration) error {
	if c.closed {
		return nil // matches the legacy silent no-op on closed contexts
	}
	if c.faulted || c.dev.faulted {
		return ErrDeviceFault
	}
	ev := c.syncEv
	if ev == nil {
		ev = sim.NewEvent(c.dev.env)
		c.syncEv = ev
	} else {
		ev.Reset()
	}
	c.dev.launchInto(c, work, ev)
	if err, _ := p.Wait(ev).(error); err != nil {
		return err
	}
	return nil
}

// Close releases the context's memory and detaches it from the device.
// Kernels already resident run to completion (CUDA frees contexts only after
// quiescence; our callers synchronize first).
func (c *Context) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.dev.memUsed -= c.memUsed
	c.memUsed = 0
	delete(c.dev.contexts, c)
}
