package sharing

import (
	"fmt"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// ResidualPolicy selects step 3 of the token scheduling policy.
type ResidualPolicy int

// Residual distribution policies.
const (
	// LowestUsageFirst is the paper's choice: the spare capacity goes to
	// the client with the lowest sliding-window usage, equalizing shares.
	LowestUsageFirst ResidualPolicy = iota
	// FIFOResidual grants the longest-waiting request instead — simpler,
	// but lets a fast re-requester starve slower tenants of the residual.
	FIFOResidual
)

// ChainKeyPrefix turns a tenant (sharePod name) into its causal-trace chain
// key, the form devlib.Frontend.SetTraceKey receives.
const ChainKeyPrefix = "SharePod/"

// tclient is the token strategy's view of one container on the device.
type tclient struct {
	id       string
	tenant   string  // owning sharePod name; defaults to id until SetTenant
	chainKey string  // ChainKeyPrefix+tenant, the token-wait exemplar's trace key
	request  float64 // guaranteed minimum usage share (gpu_request)
	limit    float64 // maximum usage share (gpu_limit)
	window   *usageWindow
	queued   *sim.Event // pending admit, nil when none
	admit    *sim.Event // cached admit event, Reset and reused per Admit
	granted  Lease      // the grant, parked here for the proc that admit's firing wakes
	enqueued time.Duration
	grants   int64        // token grants to this client, for per-tenant stats
	hold     *obs.Counter // cached kubeshare_devlib_token_hold_ns_total child
}

// Token is the paper's policy (§4.5): one token per device, scheduled among
// the registered clients — exclusive holds of at most one quota, usage
// measured as hold time within a sliding window, gpu_request guaranteed,
// gpu_limit capped, residual capacity distributed elastically.
type Token struct {
	env      *sim.Env
	uuid     string
	quota    time.Duration // token validity period
	window   time.Duration // sliding usage window
	residual ResidualPolicy
	clients  map[string]*tclient
	queue    []*tclient // FIFO of clients with pending admits
	holder   *tclient
	grant    time.Duration // when the current holder received the token
	tokSeq   uint64
	expiry   sim.Timer
	retry    sim.Timer
	// handoffs counts token grants (Stats.Handoffs).
	handoffs int64
	// swap is the optional memory over-commitment broker (see swap.go).
	swap *swapState
	// retryFn/expireFn are the timer callbacks, bound once; scheduling a
	// method value directly would allocate a closure per (re)arm.
	retryFn  func()
	expireFn func()
	// down marks the strategy suspended (its vGPU pod died); see Suspend.
	down bool

	// Telemetry handles (no-ops when the runtime is nil). grants/throttles/
	// waitHist are this device's children of the gpu_uuid-labeled families;
	// holdVec is kept as the family because its second label (tenant) varies
	// per client.
	recorder  *obs.Recorder
	grants    *obs.Counter
	admits    *obs.Counter // kubeshare_sharing_admits_total{strategy="token"} child
	throttles *obs.Counter
	waitHist  *obs.Histogram
	holdVec   *obs.CounterVec
}

var _ Strategy = (*Token)(nil)

// NewToken creates the token strategy for one device: quota is the token
// validity period, window the sliding usage window (non-positive values
// take the paper's 100 ms and 10 s). rt may be nil (telemetry disabled).
func NewToken(env *sim.Env, uuid string, quota, window time.Duration, residual ResidualPolicy, rt *obs.Runtime) *Token {
	if quota <= 0 {
		quota = 100 * time.Millisecond
	}
	if window <= 0 {
		window = 10 * time.Second
	}
	m := &Token{
		env:       env,
		uuid:      uuid,
		quota:     quota,
		window:    window,
		residual:  residual,
		clients:   make(map[string]*tclient),
		recorder:  rt.EventSource("devlib"),
		grants:    rt.CounterVec("kubeshare_devlib_token_grants_total", "gpu_uuid").With(uuid),
		admits:    rt.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With(uuid, string(ModeToken)),
		throttles: rt.CounterVec("kubeshare_devlib_throttle_retries_total", "gpu_uuid").With(uuid),
		waitHist:  rt.HistogramVec("kubeshare_devlib_token_wait_seconds", "gpu_uuid").With(uuid),
		holdVec:   rt.CounterVec("kubeshare_devlib_token_hold_ns_total", "gpu_uuid", "tenant"),
	}
	m.retryFn = m.trySchedule
	m.expireFn = m.reclaim
	return m
}

// Mode returns ModeToken.
func (m *Token) Mode() Mode { return ModeToken }

// Gated reports true: tokens expire and are re-acquired.
func (m *Token) Gated() bool { return true }

// Register adds a container with its resource shares. Request and Limit are
// fractions in (0,1]; Limit is clamped to at least Request.
func (m *Token) Register(id string, res Resources) error {
	if m.down {
		return ErrDown
	}
	if _, ok := m.clients[id]; ok {
		return fmt.Errorf("sharing: client %q already registered on %s", id, m.uuid)
	}
	if res.Request < 0 || res.Request > 1 {
		return fmt.Errorf("sharing: client %q request %v out of range", id, res.Request)
	}
	if res.Limit <= 0 || res.Limit > 1 {
		return fmt.Errorf("sharing: client %q limit %v out of range", id, res.Limit)
	}
	m.clients[id] = &tclient{
		id:       id,
		tenant:   id,
		chainKey: ChainKeyPrefix + id,
		request:  res.Request,
		limit:    max(res.Limit, res.Request),
		window:   newUsageWindow(m.window),
	}
	return nil
}

// SetTenant attributes id's granted-token time to tenant (the owning
// sharePod) in the kubeshare_devlib_token_hold_ns_total family. Frontends
// call it right after Register — including after a reconnect re-register —
// so the attribution survives suspend/resume. Unknown ids and empty tenants
// are ignored.
func (m *Token) SetTenant(id, tenant string) {
	c, ok := m.clients[id]
	if !ok || tenant == "" || c.tenant == tenant {
		return
	}
	c.tenant = tenant
	c.chainKey = ChainKeyPrefix + tenant
	c.hold = nil // re-fetched lazily under the new tenant label
}

// Unregister removes a container: a pending admit is abandoned and a held
// token is reclaimed immediately. Safe to call for unknown ids.
func (m *Token) Unregister(id string) {
	c, ok := m.clients[id]
	if !ok {
		return
	}
	delete(m.clients, id)
	m.dropResidency(id)
	for i, qc := range m.queue {
		if qc == c {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	if m.holder == c {
		m.reclaim()
	}
}

// Suspend models the death of the vGPU pod hosting the daemon: every queued
// admit fails with ErrDown, the held token is invalidated, timers stop, and
// registrations are dropped (a restarted daemon has no memory of its
// clients — surviving frontends re-register on reconnect). Usage windows
// die with the registrations; the paper's daemon keeps them in process
// memory, so a restart forgets usage history too.
func (m *Token) Suspend() {
	if m.down {
		return
	}
	m.down = true
	m.expiry.Stop()
	m.retry.Stop()
	m.holder = nil
	m.tokSeq++ // invalidate Release of any token granted before the crash
	for _, c := range m.queue {
		ev := c.queued
		c.queued = nil
		ev.Trigger(ErrDown)
	}
	m.queue = nil
	m.clients = make(map[string]*tclient)
}

// Resume brings a suspended strategy back (the replacement vGPU pod is
// serving). Clients must Register again before admitting.
func (m *Token) Resume() { m.down = false }

// Down reports whether the strategy is suspended.
func (m *Token) Down() bool { return m.down }

// Waiting returns the number of clients with a pending admit — the token is
// device-global, so the id is irrelevant. The frontend uses it to release
// the token work-conservingly the moment a kernel completes while someone
// is queued.
func (m *Token) Waiting(id string) int { return len(m.queue) }

// Registered reports whether id is a known client.
func (m *Token) Registered(id string) bool {
	_, ok := m.clients[id]
	return ok
}

// Clients returns the number of registered clients.
func (m *Token) Clients() int { return len(m.clients) }

// Stats returns a snapshot of the strategy's state.
func (m *Token) Stats() Stats {
	s := Stats{
		QueueDepth: len(m.queue),
		Clients:    len(m.clients),
		Handoffs:   m.handoffs,
	}
	if m.holder != nil {
		s.Holder = m.holder.id
	}
	if m.swap != nil {
		s.SwappedBytes = m.swap.swapped
	}
	return s
}

// TenantStats aggregates sliding-window usage and grants per tenant.
func (m *Token) TenantStats() []TenantUsage {
	tally := tenantTally{}
	for id, c := range m.clients {
		u := tally.of(c.tenant)
		u.Share += m.UsageRate(id)
		u.Admits += c.grants
	}
	return tally.sorted()
}

// UsageRate returns id's sliding-window usage share at the current instant,
// counting an in-progress hold up to now.
func (m *Token) UsageRate(id string) float64 {
	c, ok := m.clients[id]
	if !ok {
		return 0
	}
	now := m.env.Now()
	rate := c.window.Rate(now)
	if m.holder == c {
		held := now - m.grant
		if held > 0 {
			rate += float64(held) / float64(m.window)
		}
	}
	return rate
}

// Admit blocks p until id is granted the token and returns the lease. A
// client holding a still-valid token gets it back immediately.
func (m *Token) Admit(p *sim.Proc, id string) (Lease, error) {
	if m.down {
		return Lease{}, ErrDown
	}
	c, ok := m.clients[id]
	if !ok {
		return Lease{}, fmt.Errorf("sharing: admit by unregistered client %q: %w", id, ErrDown)
	}
	if m.holder == c {
		return Lease{ExpiresAt: m.grant + m.quota, Seq: m.tokSeq, Gated: true}, nil
	}
	if c.queued != nil {
		return Lease{}, fmt.Errorf("sharing: client %q has a concurrent admit in flight", id)
	}
	// Each client admits serially (enforced above), so the grant event can
	// be reused across admits instead of allocated per call.
	ev := c.admit
	if ev == nil {
		ev = sim.NewEvent(m.env)
		c.admit = ev
	} else {
		ev.Reset()
	}
	c.queued = ev
	c.enqueued = m.env.Now()
	m.queue = append(m.queue, c)
	m.trySchedule() // may grant synchronously, clearing c.queued
	if err, ok := p.Wait(ev).(error); ok {
		return Lease{}, err // suspended while we waited
	}
	return c.granted, nil
}

// Release voluntarily returns the token. Stale releases (a token that
// already expired or was reassigned) are ignored.
func (m *Token) Release(id string, l Lease) {
	if m.holder == nil || m.holder.id != id || l.Seq != m.tokSeq {
		return
	}
	m.reclaim()
}

// reclaim records the holder's span, clears the grant and reschedules.
func (m *Token) reclaim() {
	now := m.env.Now()
	if m.holder != nil {
		m.holder.window.AddSpan(m.grant, now)
		// The hold child is fetched on first reclaim rather than at Register,
		// so clients that never run a kernel leave no zero-valued series and
		// the label reflects the tenant set by install time.
		if m.holder.hold == nil {
			m.holder.hold = m.holdVec.With(m.uuid, m.holder.tenant)
		}
		m.holder.hold.Add(int64(now - m.grant))
		m.holder = nil
	}
	m.expiry.Stop()
	m.trySchedule()
}

// trySchedule grants the token to the best eligible queued client, following
// the paper's three steps: (1) filter clients at or above gpu_limit,
// (2) prefer the client farthest below its gpu_request, (3) otherwise the
// client with the lowest usage.
func (m *Token) trySchedule() {
	if m.holder != nil || len(m.queue) == 0 {
		return
	}
	now := m.env.Now()
	var best *tclient
	bestIdx := -1
	var bestKey float64
	bestBelow := false
	for i, c := range m.queue {
		usage := c.window.Rate(now)
		// Step 1: filter clients already at their maximum usage demand.
		if usage >= c.limit {
			continue
		}
		below := usage < c.request
		var key float64
		switch {
		case below:
			key = c.request - usage // Step 2: farthest below request wins
		case m.residual == FIFOResidual:
			key = float64(c.enqueued) // Step 3 (ablation): oldest request wins
		default:
			key = usage // Step 3 (paper): lowest usage wins
		}
		better := best == nil ||
			(below && !bestBelow) ||
			(below == bestBelow && below && key > bestKey) ||
			(below == bestBelow && !below && key < bestKey)
		if better {
			best, bestIdx, bestBelow, bestKey = c, i, below, key
		}
	}
	if best == nil {
		// Everyone queued is throttled at their limit; retry when the
		// window has slid forward by one quota.
		if !m.retry.Active() {
			m.retry = m.env.After(m.quota, m.retryFn)
			m.throttles.Inc()
			m.recorder.Eventf("GPU", m.uuid, obs.EventWarning, "Throttled",
				"%d queued clients all at gpu_limit", len(m.queue))
		}
		return
	}
	m.queue = append(m.queue[:bestIdx], m.queue[bestIdx+1:]...)
	m.tokSeq++
	m.handoffs++
	best.grants++
	m.grants.Inc()
	m.admits.Inc()
	// Token-wait exemplar: the chain key is the owning sharePod; no span
	// anchors the grant itself (span 0), the chain's grant mark does.
	m.waitHist.ObserveDurationExemplar(now-best.enqueued, best.chainKey, 0)
	m.holder = best
	m.grant = now
	// The grant is parked on the client and the event fired with nil: a Lease
	// passed through Trigger's `any` would be boxed on the heap per grant.
	best.granted = Lease{ExpiresAt: now + m.quota, Seq: m.tokSeq, Gated: true}
	m.expiry = m.env.After(m.quota, m.expireFn)
	ev := best.queued
	best.queued = nil
	ev.Trigger(nil)
}
