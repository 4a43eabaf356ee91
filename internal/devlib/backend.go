// Package devlib implements the paper's vGPU device library (§4.5): the
// per-node backend daemon that schedules a per-device token among
// containers, and the per-container frontend that intercepts CUDA calls and
// blocks kernel launches until a valid token is held.
//
// The backend guarantees each container's gpu_request (minimum usage share),
// caps it at gpu_limit (maximum share), and elastically distributes residual
// capacity — usage being measured as token-hold time within a sliding
// window. The frontend additionally enforces the container's gpu_mem share
// by failing allocations beyond it with an out-of-memory error.
package devlib

import (
	"errors"
	"fmt"
	"time"

	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/metrics"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// ErrManagerDown is returned by token operations while the device's token
// manager is suspended — the vGPU pod hosting it died and its replacement
// has not come up yet. Frontends treat it as transient and reconnect with
// bounded backoff.
var ErrManagerDown = errors.New("devlib: token manager down")

// Config parameterizes the device library. Zero values take defaults.
type Config struct {
	// Quota is the token validity period: how long a container may hold the
	// GPU before re-acquiring (paper default 100 ms; ablated in Figure 7).
	Quota time.Duration
	// Window is the sliding window over which usage rates are measured.
	Window time.Duration
	// Handoff is the cost of a token exchange (queue pop, IPC, pipeline
	// warm-up). It is what makes small quotas expensive.
	Handoff time.Duration
	// Grace is the frontend's inactivity grace: after a kernel completes,
	// the token is voluntarily released if no further kernel is launched
	// within Grace, so bursty (inference) workloads do not hog the device
	// between requests.
	Grace time.Duration
	// Residual selects how step 3 of the token policy distributes spare
	// capacity among clients that already met their gpu_request (ablation
	// knob; the paper uses lowest-usage-first).
	Residual ResidualPolicy
	// MemOvercommit enables GPUswap-style memory over-commitment: container
	// memory becomes virtual, and working sets are swapped host↔device at
	// token handoff when they do not all fit (§6 of the paper).
	MemOvercommit bool
	// SwapBandwidth is the host↔device transfer rate used for swapping
	// (defaults to PCIe gen3 x16).
	SwapBandwidth int64
	// Obs is the telemetry runtime token managers record against (token
	// grants, wait-latency histogram, throttle events). Nil disables
	// instrumentation.
	Obs *obs.Runtime
	// Mode selects the node's default sharing strategy ("" = token). Pods
	// may override it per sharePod via spec.sharing_mode, but a device runs
	// exactly one strategy: the first client's mode wins and conflicting
	// modes fail at library-hook time.
	Mode sharing.Mode
	// Replicas is the number of logical GPUs each physical device
	// advertises under the replica strategy (default DefaultReplicas;
	// ignored by the other modes).
	Replicas int
}

// Defaults (see Config).
const (
	DefaultQuota  = 100 * time.Millisecond
	DefaultWindow = 10 * time.Second
	// DefaultHandoff is sub-millisecond: the real backend hands the token
	// over a local socket. Fine-grained kernel interleaving between bursty
	// tenants (Fig 12's 1.5× B+B slowdown) depends on this being cheap.
	DefaultHandoff = 500 * time.Microsecond
	DefaultGrace   = 2 * time.Millisecond
	// DefaultReplicas is the replica strategy's logical-GPU count per
	// physical device (the NVIDIA time-slicing plugin's common default).
	DefaultReplicas = 2
)

func (c Config) withDefaults() Config {
	if c.Quota <= 0 {
		c.Quota = DefaultQuota
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Handoff < 0 {
		c.Handoff = 0
	} else if c.Handoff == 0 {
		c.Handoff = DefaultHandoff
	}
	if c.Grace <= 0 {
		c.Grace = DefaultGrace
	}
	if c.SwapBandwidth <= 0 {
		c.SwapBandwidth = 12 << 30
	}
	if c.Mode == "" {
		c.Mode = sharing.ModeToken
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	return c
}

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

// Token is a grant to use the device until ExpiresAt.
type Token struct {
	ExpiresAt time.Duration
	seq       uint64
}

// Valid reports whether the token is still usable at time now.
func (t Token) Valid(now time.Duration) bool { return t.seq != 0 && now < t.ExpiresAt }

// Backend is the per-node daemon: one sharing strategy per device UUID
// (one token manager per device in the default mode, §4.5).
type Backend struct {
	env        *sim.Env
	cfg        Config
	managers   map[string]*TokenManager
	strategies map[string]sharing.Strategy
}

// NewBackend creates a node backend.
func NewBackend(env *sim.Env, cfg Config) *Backend {
	return &Backend{
		env:        env,
		cfg:        cfg.withDefaults(),
		managers:   make(map[string]*TokenManager),
		strategies: make(map[string]sharing.Strategy),
	}
}

// Manager returns the token manager for a device UUID, creating it on first
// use (devices each have an independent token, §4.5).
func (b *Backend) Manager(uuid string) *TokenManager {
	m, ok := b.managers[uuid]
	if !ok {
		m = NewTokenManager(b.env, uuid, b.cfg)
		b.managers[uuid] = m
	}
	return m
}

// Strategy returns the device's sharing strategy under the backend's
// default mode, creating it on first use. In token mode it wraps the same
// TokenManager that Manager(uuid) returns, so both views stay consistent.
func (b *Backend) Strategy(uuid string) sharing.Strategy {
	s, _ := b.StrategyFor(uuid, b.cfg.Mode)
	return s
}

// StrategyOf returns the device's already-instantiated strategy, or nil
// when no client has reached the device yet.
func (b *Backend) StrategyOf(uuid string) sharing.Strategy { return b.strategies[uuid] }

// StrategyFor returns the device's strategy, creating it with the given
// mode ("" = backend default) on first use. A device runs exactly one
// strategy: once created, requesting a different mode is an error — the
// scheduler should keep tenants of different modes off one device (the
// exclusion-label mechanism segregates them).
func (b *Backend) StrategyFor(uuid string, mode sharing.Mode) (sharing.Strategy, error) {
	if mode == "" {
		mode = b.cfg.Mode
	}
	if s, ok := b.strategies[uuid]; ok {
		if s.Mode() != mode {
			return nil, fmt.Errorf("devlib: device %s already shared in %q mode, cannot serve %q", uuid, s.Mode(), mode)
		}
		return s, nil
	}
	var s sharing.Strategy
	switch mode {
	case sharing.ModeMPS:
		s = sharing.NewMPS(b.env, uuid, b.cfg.Obs)
	case sharing.ModeReplica:
		s = sharing.NewReplica(b.env, uuid, b.cfg.Replicas, b.cfg.Quota, b.cfg.Obs)
	case sharing.ModeToken:
		s = TokenStrategy{b.Manager(uuid)}
	default:
		return nil, fmt.Errorf("devlib: unknown sharing mode %q", mode)
	}
	b.strategies[uuid] = s
	return s, nil
}

// Config returns the backend's (defaulted) configuration.
func (b *Backend) Config() Config { return b.cfg }

// Managers returns a snapshot of the instantiated token managers by device
// UUID, for fault injection and leak-checking invariants.
func (b *Backend) Managers() map[string]*TokenManager {
	out := make(map[string]*TokenManager, len(b.managers))
	for uuid, m := range b.managers {
		out[uuid] = m
	}
	return out
}

// chainKeyPrefix turns a tenant (sharePod name) into its causal-trace chain
// key, the form Frontend.SetTraceKey receives.
const chainKeyPrefix = "SharePod/"

// client is the backend's view of one container on the device.
type client struct {
	id       string
	tenant   string  // owning sharePod name; defaults to id until SetTenant
	chainKey string  // "SharePod/"+tenant, the token-wait exemplar's trace key
	request  float64 // guaranteed minimum usage share (gpu_request)
	limit    float64 // maximum usage share (gpu_limit)
	window   *metrics.UsageWindow
	queued   *sim.Event // pending acquire, nil when none
	acquire  *sim.Event // cached acquire event, Reset and reused per Acquire
	granted  Token      // the grant, parked here for the proc that acquire's firing wakes
	enqueued time.Duration
	grants   int64        // token grants to this client, for per-tenant stats
	hold     *obs.Counter // cached kubeshare_devlib_token_hold_ns_total child
}

// TokenManager schedules one device's token among its registered clients.
type TokenManager struct {
	env     *sim.Env
	uuid    string
	cfg     Config
	clients map[string]*client
	queue   []*client // FIFO of clients with pending acquires
	holder  *client
	grant   time.Duration // when the current holder received the token
	tokSeq  uint64
	expiry  sim.Timer
	retry   sim.Timer
	// handoffs counts token grants, for overhead accounting in tests.
	handoffs int64
	// swap is the optional memory over-commitment broker (see swap.go).
	swap *swapState
	// retryFn/expireFn are the timer callbacks, bound once; scheduling a
	// method value directly would allocate a closure per (re)arm.
	retryFn  func()
	expireFn func()
	// down marks the manager suspended (its vGPU pod died); see Suspend.
	down bool

	// Telemetry handles (no-ops when Config.Obs is nil). grants/throttles/
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

// NewTokenManager creates a manager for one device.
func NewTokenManager(env *sim.Env, uuid string, cfg Config) *TokenManager {
	m := &TokenManager{
		env:       env,
		uuid:      uuid,
		cfg:       cfg.withDefaults(),
		clients:   make(map[string]*client),
		recorder:  cfg.Obs.EventSource("devlib"),
		grants:    cfg.Obs.CounterVec("kubeshare_devlib_token_grants_total", "gpu_uuid").With(uuid),
		admits:    cfg.Obs.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With(uuid, string(sharing.ModeToken)),
		throttles: cfg.Obs.CounterVec("kubeshare_devlib_throttle_retries_total", "gpu_uuid").With(uuid),
		waitHist:  cfg.Obs.HistogramVec("kubeshare_devlib_token_wait_seconds", "gpu_uuid").With(uuid),
		holdVec:   cfg.Obs.CounterVec("kubeshare_devlib_token_hold_ns_total", "gpu_uuid", "tenant"),
	}
	m.retryFn = m.trySchedule
	m.expireFn = m.reclaim
	return m
}

// Register adds a container with its resource shares. request and limit are
// fractions in (0,1]; limit is clamped to at least request.
func (m *TokenManager) Register(id string, request, limit float64) error {
	if m.down {
		return ErrManagerDown
	}
	if _, ok := m.clients[id]; ok {
		return fmt.Errorf("devlib: client %q already registered on %s", id, m.uuid)
	}
	if request < 0 || request > 1 {
		return fmt.Errorf("devlib: client %q request %v out of range", id, request)
	}
	if limit <= 0 || limit > 1 {
		return fmt.Errorf("devlib: client %q limit %v out of range", id, limit)
	}
	if limit < request {
		limit = request
	}
	m.clients[id] = &client{
		id:       id,
		tenant:   id,
		chainKey: chainKeyPrefix + id,
		request:  request,
		limit:    limit,
		window:   metrics.NewUsageWindow(m.cfg.Window),
	}
	return nil
}

// SetTenant attributes id's granted-token time to tenant (the owning
// sharePod) in the kubeshare_devlib_token_hold_ns_total family. Frontends
// call it right after Register — including after a reconnect re-register —
// so the attribution survives manager suspend/resume. Unknown ids and empty
// tenants are ignored.
func (m *TokenManager) SetTenant(id, tenant string) {
	c, ok := m.clients[id]
	if !ok || tenant == "" || c.tenant == tenant {
		return
	}
	c.tenant = tenant
	c.chainKey = chainKeyPrefix + tenant
	c.hold = nil // re-fetched lazily under the new tenant label
}

// Unregister removes a container: pending acquires are abandoned and a held
// token is reclaimed immediately. Safe to call for unknown ids.
func (m *TokenManager) Unregister(id string) {
	c, ok := m.clients[id]
	if !ok {
		return
	}
	delete(m.clients, id)
	m.DropResidency(id)
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

// Suspend models the death of the vGPU pod hosting this manager: every
// queued acquire fails with ErrManagerDown, the held token is invalidated,
// timers stop, and registrations are dropped (a restarted daemon has no
// memory of its clients — surviving frontends re-register on reconnect).
// Usage windows die with the registrations; the paper's daemon keeps them
// in process memory, so a restart forgets usage history too.
func (m *TokenManager) Suspend() {
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
		ev.Trigger(ErrManagerDown)
	}
	m.queue = nil
	m.clients = make(map[string]*client)
}

// Resume brings a suspended manager back (the replacement vGPU pod is
// serving). Clients must Register again before acquiring.
func (m *TokenManager) Resume() { m.down = false }

// Down reports whether the manager is suspended.
func (m *TokenManager) Down() bool { return m.down }

// Waiting returns the number of clients with a pending acquire — the
// frontend uses it to release the token work-conservingly the moment a
// kernel completes while someone is queued.
func (m *TokenManager) Waiting() int { return len(m.queue) }

// Registered reports whether id is a known client.
func (m *TokenManager) Registered(id string) bool {
	_, ok := m.clients[id]
	return ok
}

// Clients returns the number of registered clients.
func (m *TokenManager) Clients() int { return len(m.clients) }

// Handoffs returns the number of token grants so far.
func (m *TokenManager) Handoffs() int64 { return m.handoffs }

// Stats is a point-in-time snapshot of a token manager (an alias of the
// sharing layer's strategy snapshot, so the token manager's stats are the
// default strategy's stats, field for field).
type Stats = sharing.Stats

// Stats returns a snapshot of the manager's state.
func (m *TokenManager) Stats() Stats {
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

// UsageRate returns id's sliding-window usage share at the current instant,
// counting an in-progress hold up to now.
func (m *TokenManager) UsageRate(id string) float64 {
	c, ok := m.clients[id]
	if !ok {
		return 0
	}
	now := m.env.Now()
	rate := c.window.Rate(now)
	if m.holder == c {
		held := now - m.grant
		if held > 0 {
			rate += float64(held) / float64(m.cfg.Window)
		}
	}
	return rate
}

// Acquire blocks p until id is granted the token and returns it. A client
// holding a still-valid token gets it back immediately.
func (m *TokenManager) Acquire(p *sim.Proc, id string) (Token, error) {
	if m.down {
		return Token{}, ErrManagerDown
	}
	c, ok := m.clients[id]
	if !ok {
		return Token{}, fmt.Errorf("devlib: acquire by unregistered client %q: %w", id, ErrManagerDown)
	}
	if m.holder == c {
		return Token{ExpiresAt: m.grant + m.cfg.Quota, seq: m.tokSeq}, nil
	}
	if c.queued != nil {
		return Token{}, fmt.Errorf("devlib: client %q has a concurrent acquire in flight", id)
	}
	// Each client acquires serially (enforced above), so the grant event can
	// be reused across acquires instead of allocated per call.
	ev := c.acquire
	if ev == nil {
		ev = sim.NewEvent(m.env)
		c.acquire = ev
	} else {
		ev.Reset()
	}
	c.queued = ev
	c.enqueued = m.env.Now()
	m.queue = append(m.queue, c)
	m.trySchedule() // may grant synchronously, clearing c.queued
	if err, ok := p.Wait(ev).(error); ok {
		return Token{}, err // the manager was suspended while we waited
	}
	return c.granted, nil
}

// Release voluntarily returns the token. Stale releases (a token that
// already expired or was reassigned) are ignored.
func (m *TokenManager) Release(id string, tok Token) {
	if m.holder == nil || m.holder.id != id || tok.seq != m.tokSeq {
		return
	}
	m.reclaim()
}

// reclaim records the holder's span, clears the grant and reschedules.
func (m *TokenManager) reclaim() {
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
func (m *TokenManager) trySchedule() {
	if m.holder != nil || len(m.queue) == 0 {
		return
	}
	now := m.env.Now()
	var best *client
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
		case m.cfg.Residual == FIFOResidual:
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
			m.retry = m.env.After(m.cfg.Quota, m.retryFn)
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
	// The grant is parked on the client and the event fired with nil: a Token
	// passed through Trigger's `any` would be boxed on the heap per grant.
	best.granted = Token{ExpiresAt: now + m.cfg.Quota, seq: m.tokSeq}
	m.expiry = m.env.After(m.cfg.Quota, m.expireFn)
	ev := best.queued
	best.queued = nil
	ev.Trigger(nil)
}
