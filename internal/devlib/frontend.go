package devlib

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/backoff"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Reconnect bounds: a frontend whose sharing strategy goes down (vGPU pod
// crash) retries under the shared decorrelated-jitter backoff policy
// (internal/kube/backoff) while DevMgr replaces the daemon, then surfaces
// the down error if the outage outlives the budget.
const (
	reconnectBase     = 20 * time.Millisecond
	reconnectCap      = time.Second
	reconnectAttempts = 32
)

// Share is a container's vGPU resource specification, the values from the
// SharePodSpec (§4.2).
type Share struct {
	// Request is the guaranteed minimum compute share (gpu_request).
	Request float64
	// Limit is the maximum compute share (gpu_limit); 0 means equal to
	// Request.
	Limit float64
	// Memory is the device-memory fraction (gpu_mem) the container may
	// allocate.
	Memory float64
	// MemoryBytes is the absolute device-memory request (gpu_mem_bytes,
	// KAI-style). When set it takes precedence over the fractional form and
	// is additionally enforced inside gpusim's memory model via the
	// context's byte limit.
	MemoryBytes int64
}

// Validate checks the share against the paper's fractional-value rules
// (extended with the absolute gpu_mem_bytes form: exactly one of the two
// memory requests must be positive).
//
// The range checks are written `!(lo <= x && x <= hi)` so that NaN, for
// which every comparison is false, fails them.
func (s Share) Validate() error {
	if !(s.Request >= 0 && s.Request <= 1) {
		return fmt.Errorf("devlib: gpu_request %v outside [0,1]", s.Request)
	}
	limit := s.Limit
	if limit == 0 {
		limit = s.Request
	}
	if !(limit > 0 && limit <= 1) {
		return fmt.Errorf("devlib: gpu_limit %v outside (0,1]", s.Limit)
	}
	if limit < s.Request {
		return fmt.Errorf("devlib: gpu_limit %v below gpu_request %v", s.Limit, s.Request)
	}
	if s.MemoryBytes < 0 {
		return fmt.Errorf("devlib: gpu_mem_bytes %d negative", s.MemoryBytes)
	}
	if s.MemoryBytes > 0 {
		if s.Memory != 0 {
			return fmt.Errorf("devlib: gpu_mem %v and gpu_mem_bytes %d both set", s.Memory, s.MemoryBytes)
		}
		return nil
	}
	if !(s.Memory > 0 && s.Memory <= 1) {
		return fmt.Errorf("devlib: gpu_mem %v outside (0,1]", s.Memory)
	}
	return nil
}

// EffectiveLimit returns Limit, defaulting to Request when unset.
func (s Share) EffectiveLimit() float64 {
	if s.Limit == 0 {
		return s.Request
	}
	return s.Limit
}

// resources maps the share onto the strategy layer's demand record.
func (s Share) resources() sharing.Resources {
	return sharing.Resources{
		Request:     s.Request,
		Limit:       s.EffectiveLimit(),
		MemFraction: s.Memory,
		MemBytes:    s.MemoryBytes,
	}
}

// Frontend is the per-container interposer: a cuda.API that gates
// compute calls on lease possession and caps memory allocation at the
// container's gpu_mem share. It is installed by KubeShare-DevMgr in place
// of the raw driver (the LD_PRELOAD step of §4.5). The admission policy
// behind it is pluggable (sharing.Strategy); under the default token
// strategy the behavior is the paper's token time-slicing, unchanged.
type Frontend struct {
	base     cuda.API
	strat    sharing.Strategy
	clientID string
	share    Share
	memCap   int64
	// gated caches strat.Gated(): only time-slicing strategies pay handoff
	// sleeps, arm grace timers and release leases work-conservingly.
	gated bool

	lease      sharing.Lease
	releaseTmr sim.Timer
	// releaseFn is the grace-expiry callback, built once so scheduling the
	// grace timer after every kernel does not allocate a fresh closure. It
	// reads f.lease at fire time; every path that changes the lease first
	// stops the pending timer, and strategies ignore stale leases, so the
	// late read is equivalent to capturing the lease at scheduling time.
	releaseFn func()
	closed    bool

	// Trace milestones: the first admission grant and first kernel launch
	// are marked once onto the chain named by traceKey (see SetTraceKey).
	// tenant is the owning sharePod name derived from the key; it labels the
	// client's usage attribution and is re-applied on every re-register so
	// it survives strategy suspend/resume.
	tracer      *obs.Tracer
	traceKey    string
	tenant      string
	markedGrant bool
	markedFirst bool

	// Ungated (overlap) accounting: devCtx is the underlying gpusim context
	// when the base API exposes one; after each synchronous kernel (and each
	// Synchronize) the context's device-time delta is recorded into
	// kubeshare_sharing_devtime_ns_total{gpu_uuid,tenant}, the overlap
	// counterpart of the token strategy's hold accounting.
	devCtx      *gpusim.Context
	lastDevTime time.Duration
	devtimeVec  *obs.CounterVec
	devtimeCtr  *obs.Counter
}

var _ cuda.API = (*Frontend)(nil)

// deviceContexter is the optional surface a cuda.API exposes to reach the
// simulated device context (cuda.Driver does); the frontend uses it to set
// overlap compute weights and absolute memory limits.
type deviceContexter interface {
	Context() *gpusim.Context
}

// NewFrontendWith wraps base for a container under the device's sharing
// strategy and registers the container with it; the caller must ensure the
// sum of Request over a device's containers stays ≤ 1 (KubeShare-Sched's
// job). cfg supplies the frontend's telemetry runtime — pass the owning
// Backend's Config.
func NewFrontendWith(base cuda.API, strat sharing.Strategy, clientID string, share Share, cfg Config) (*Frontend, error) {
	if err := share.Validate(); err != nil {
		return nil, err
	}
	// A container may start while the device's daemon is down (vGPU pod
	// being replaced mid-recovery): tolerate it — the first compute call's
	// reconnect loop registers once the daemon is back.
	if err := strat.Register(clientID, share.resources()); err != nil && !errors.Is(err, sharing.ErrDown) {
		return nil, err
	}
	memCap := int64(share.Memory * float64(base.Device().MemoryBytes))
	if share.MemoryBytes > 0 {
		memCap = share.MemoryBytes
	}
	f := &Frontend{
		base:     base,
		strat:    strat,
		clientID: clientID,
		share:    share,
		memCap:   memCap,
		gated:    strat.Gated(),
		tracer:   cfg.Obs.Tracer(),
	}
	f.releaseFn = func() {
		f.strat.Release(f.clientID, f.lease)
		f.lease = sharing.Lease{}
	}
	if ctxer, ok := base.(deviceContexter); ok {
		if ctx := ctxer.Context(); ctx != nil {
			if share.MemoryBytes > 0 {
				// Absolute requests are enforced by the device's own memory
				// model, not just the frontend's share check.
				ctx.SetMemLimit(share.MemoryBytes)
			}
			if !f.gated {
				// Overlap mode: the tenant's gpu_request is its SM/compute
				// fraction — the processor-sharing weight of its kernels.
				if w := share.Request; w > 0 {
					ctx.SetComputeWeight(w)
				} else if w := share.EffectiveLimit(); w > 0 {
					ctx.SetComputeWeight(w)
				}
				f.devCtx = ctx
				f.devtimeVec = cfg.Obs.CounterVec("kubeshare_sharing_devtime_ns_total", "gpu_uuid", "tenant")
			}
		}
	}
	return f, nil
}

// SetTraceKey names the causal-trace chain the frontend's milestones (first
// admission grant, first kernel launch) attach to — typically the owning
// sharePod's "SharePod/<name>" key. Without a key the frontend records no
// trace marks. The sharePod name doubles as the tenant label on the
// container's usage metrics.
func (f *Frontend) SetTraceKey(key string) {
	f.traceKey = key
	f.tenant = strings.TrimPrefix(key, sharing.ChainKeyPrefix)
	f.strat.SetTenant(f.clientID, f.tenant)
	f.devtimeCtr = nil // re-fetched lazily under the new tenant label
}

// Device reports the visible device with capacity clipped to the gpu_mem
// share, which is what applications should size against.
func (f *Frontend) Device() cuda.DeviceInfo {
	info := f.base.Device()
	info.MemoryBytes = f.memCap
	return info
}

// MemAlloc enforces the gpu_mem cap: allocations beyond the share fail with
// out-of-memory (the paper's no-overcommit policy), before ever reaching
// the physical allocator.
func (f *Frontend) MemAlloc(p *sim.Proc, n int64) (cuda.Ptr, error) {
	if f.closed {
		return 0, cuda.ErrClosed
	}
	if f.MemUsed()+n > f.memCap {
		return 0, fmt.Errorf("devlib: container %s exceeds gpu_mem share (%d of %d bytes): %w",
			f.clientID, f.MemUsed()+n, f.memCap, cuda.ErrOutOfMemory)
	}
	return f.base.MemAlloc(p, n)
}

// MemFree passes through.
func (f *Frontend) MemFree(p *sim.Proc, ptr cuda.Ptr) error {
	if f.closed {
		return cuda.ErrClosed
	}
	return f.base.MemFree(p, ptr)
}

// MemcpyHtoD passes through (copies are not throttled; only kernel
// execution consumes the compute share).
func (f *Frontend) MemcpyHtoD(p *sim.Proc, n int64) error {
	if f.closed {
		return cuda.ErrClosed
	}
	return f.base.MemcpyHtoD(p, n)
}

// MemcpyDtoH passes through.
func (f *Frontend) MemcpyDtoH(p *sim.Proc, n int64) error {
	if f.closed {
		return cuda.ErrClosed
	}
	return f.base.MemcpyDtoH(p, n)
}

// acquireLease obtains a valid lease, riding out strategy outages: on a
// down error it sleeps with capped exponential backoff, re-registers with
// the (replacement) strategy once it is serving again, and retries — up to
// reconnectAttempts before surfacing the error to the application.
func (f *Frontend) acquireLease(p *sim.Proc) error {
	// Built on the first down error: a lease is acquired once per quota on
	// the kernel-launch path and almost never meets an outage, and seeding
	// the generator costs far more than the admission it would guard.
	var retry *backoff.Backoff
	for attempt := 0; ; attempt++ {
		lease, err := f.strat.Admit(p, f.clientID)
		if err == nil {
			f.lease = lease
			if !f.markedGrant && f.traceKey != "" {
				f.markedGrant = true
				f.tracer.Mark("devlib", "token-grant", f.traceKey, f.clientID)
			}
			if f.gated {
				// Handoff cost: IPC plus pipeline warm-up before the first
				// kernel of this hold can start. Ungated (overlap) admission
				// has no exchange to pay for.
				p.Sleep(handoff)
			}
			return nil
		}
		if !errors.Is(err, sharing.ErrDown) || attempt >= reconnectAttempts {
			return err
		}
		if retry == nil {
			// Seeded per client, so a holder kill that strands many frontends
			// at the same instant spreads their re-registration attempts apart.
			retry = backoff.New("devlib/"+f.clientID, reconnectBase, reconnectCap)
		}
		p.Sleep(retry.Next())
		if f.closed {
			return cuda.ErrClosed // torn down while waiting out the outage
		}
		if !f.strat.Down() && !f.strat.Registered(f.clientID) {
			// The replacement daemon is serving and has no memory of us.
			_ = f.strat.Register(f.clientID, f.share.resources())
			f.strat.SetTenant(f.clientID, f.tenant)
		}
	}
}

// LaunchKernel blocks until the container holds a valid lease, then
// executes the kernel. Under a gated strategy the lease is voluntarily
// released after completion if no further kernel is launched within the
// inactivity grace; under an ungated one the kernel's device time is
// accounted instead.
func (f *Frontend) LaunchKernel(p *sim.Proc, work time.Duration) error {
	if f.closed {
		return cuda.ErrClosed
	}
	f.releaseTmr.Stop()
	if !f.lease.Valid(p.Env().Now()) {
		if err := f.acquireLease(p); err != nil {
			return err
		}
	}
	f.markFirstLaunch()
	if err := f.base.LaunchKernel(p, work); err != nil {
		return err
	}
	if f.closed {
		return nil // closed while the kernel ran
	}
	if !f.gated {
		f.recordDevTime()
		return nil
	}
	if f.strat.Waiting(f.clientID) > 0 {
		// Work-conserving handover: someone is queued, so give the device
		// up right away instead of idling through the grace period.
		f.strat.Release(f.clientID, f.lease)
		f.lease = sharing.Lease{}
		return nil
	}
	f.releaseTmr = p.Env().After(grace, f.releaseFn)
	return nil
}

// LaunchKernelAsync blocks until a valid lease is held (the interposition
// point is the launch call itself), then submits without waiting. The
// lease's release is deferred to Synchronize or quota expiry, letting apps
// batch a stream of kernels under one hold.
func (f *Frontend) LaunchKernelAsync(p *sim.Proc, work time.Duration) (*sim.Event, error) {
	if f.closed {
		return nil, cuda.ErrClosed
	}
	f.releaseTmr.Stop()
	if !f.lease.Valid(p.Env().Now()) {
		if err := f.acquireLease(p); err != nil {
			return nil, err
		}
	}
	f.markFirstLaunch()
	return f.base.LaunchKernelAsync(p, work)
}

// markFirstLaunch records the container's first kernel reaching the device
// — the interposition boundary between the library and the GPU, so the mark
// carries the "gpusim" component on the sharePod's chain.
func (f *Frontend) markFirstLaunch() {
	if f.markedFirst || f.traceKey == "" {
		return
	}
	f.markedFirst = true
	f.tracer.Mark("gpusim", "kernel-launch", f.traceKey, f.clientID)
}

// recordDevTime accounts the context's device-time delta to the tenant —
// the overlap strategies' usage attribution, feeding the fairness auditor
// the way token-hold spans do under the default strategy.
func (f *Frontend) recordDevTime() {
	if f.devCtx == nil {
		return
	}
	dt := f.devCtx.DeviceTime()
	if dt <= f.lastDevTime {
		return
	}
	delta := dt - f.lastDevTime
	f.lastDevTime = dt
	if f.devtimeCtr == nil {
		tenant := f.tenant
		if tenant == "" {
			tenant = f.clientID
		}
		f.devtimeCtr = f.devtimeVec.With(f.base.Device().UUID, tenant)
	}
	f.devtimeCtr.Add(int64(delta))
}

// Synchronize drains the stream, then hands the lease over (immediately if
// someone waits, after the grace otherwise) under a gated strategy, or
// accounts device time under an ungated one.
func (f *Frontend) Synchronize(p *sim.Proc) error {
	if f.closed {
		return cuda.ErrClosed
	}
	if err := f.base.Synchronize(p); err != nil {
		return err
	}
	if f.closed {
		return nil
	}
	if !f.gated {
		f.recordDevTime()
		return nil
	}
	if !f.lease.Valid(p.Env().Now()) {
		return nil
	}
	if f.strat.Waiting(f.clientID) > 0 {
		f.strat.Release(f.clientID, f.lease)
		f.lease = sharing.Lease{}
		return nil
	}
	f.releaseTmr = p.Env().After(grace, f.releaseFn)
	return nil
}

// MemUsed reports the container's allocated bytes.
func (f *Frontend) MemUsed() int64 {
	return f.base.MemUsed()
}

// Close releases any held lease, unregisters the container and closes the
// underlying driver handle. It never blocks, so it is safe from container
// teardown paths.
func (f *Frontend) Close(p *sim.Proc) error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.releaseTmr.Stop()
	if !f.gated {
		f.recordDevTime()
	}
	f.strat.Unregister(f.clientID)
	return f.base.Close(p)
}
