package sharing

import (
	"fmt"
	"strconv"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// ChainKeyPrefix turns a tenant (sharePod name) into its causal-trace chain
// key, the form devlib.Frontend.SetTraceKey receives.
const ChainKeyPrefix = "SharePod/"

// Token is the paper's policy (§4.5): one token per device, scheduled among
// the registered clients — exclusive holds of at most one quota, usage
// measured as hold time within a sliding window, gpu_request guaranteed,
// gpu_limit capped, residual capacity distributed elastically. The turn
// itself is the embedded gate; Token adds the pick, the throttle retry and
// the usage windows.
type Token struct {
	roster
	*gate
	window time.Duration // sliding usage window
	// spare is the emptied window of a departed client, kept for the next
	// Register: the largest ring seen since it was last taken.
	spare *usageWindow
	retry sim.Timer // throttle retry; fires the gate's bound schedule (trySchedule)

	// Telemetry handles (no-ops when the runtime is nil): this device's
	// children of the gpu_uuid-labeled families.
	recorder  *obs.Recorder
	grants    *obs.Counter
	throttles *obs.Counter
	waitHist  *obs.Histogram
}

var _ Strategy = (*Token)(nil)

// NewToken creates the token strategy for one device: quota is the token
// validity period, window the sliding usage window (non-positive values
// take the paper's 100 ms and 10 s). rt may be nil (telemetry disabled).
func NewToken(env *sim.Env, uuid string, quota, window time.Duration, rt *obs.Runtime) *Token {
	if quota <= 0 {
		quota = 100 * time.Millisecond
	}
	if window <= 0 {
		window = 10 * time.Second
	}
	m := &Token{
		roster: newRoster(uuid),
		gate: newGate(env, uuid, quota,
			rt.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With(uuid, string(ModeToken)),
			rt.CounterVec("kubeshare_devlib_token_hold_ns_total", "gpu_uuid", "tenant")),
		window:    window,
		recorder:  rt.EventSource("devlib"),
		grants:    rt.CounterVec("kubeshare_devlib_token_grants_total", "gpu_uuid").With(uuid),
		throttles: rt.CounterVec("kubeshare_devlib_throttle_retries_total", "gpu_uuid").With(uuid),
		waitHist:  rt.HistogramVec("kubeshare_devlib_token_wait_seconds", "gpu_uuid").With(uuid),
	}
	m.schedule = m.trySchedule
	m.expireFn = m.reclaim
	return m
}

// Mode returns ModeToken.
func (m *Token) Mode() Mode { return ModeToken }

// Gated reports true: tokens expire and are re-acquired.
func (m *Token) Gated() bool { return true }

// Register adds a container with its resource shares. Request and Limit are
// fractions in [0,1] and (0,1]; Limit is clamped to at least Request.
func (m *Token) Register(id string, res Resources) error {
	if err := m.check(id); err != nil {
		return err
	}
	// Written so that NaN fails: every comparison with NaN is false.
	if !(res.Request >= 0 && res.Request <= 1) {
		return fmt.Errorf("sharing: client %q request %v out of range", id, res.Request)
	}
	if !(res.Limit > 0 && res.Limit <= 1) {
		return fmt.Errorf("sharing: client %q limit %v out of range", id, res.Limit)
	}
	c := m.add(id)
	c.request, c.limit = res.Request, max(res.Limit, res.Request)
	c.window, m.spare = m.spare, nil
	if c.window == nil {
		c.window = newUsageWindow(m.window)
	}
	return nil
}

// Unregister removes a container: a pending admit is abandoned and a held
// token is reclaimed immediately. Safe to call for unknown ids. The
// client's window, emptied once drop has recorded its last span, becomes
// the spare if its ring is larger than the spare's.
func (m *Token) Unregister(id string) {
	if c := m.remove(id); c != nil {
		m.drop(c)
		if w := c.window; m.spare == nil || len(w.spans) > len(m.spare.spans) {
			w.reset()
			m.spare = w
		}
		c.window = nil
	}
}

// Suspend models the death of the vGPU pod hosting the daemon: every queued
// admit fails with ErrDown, the held token is invalidated, timers stop, and
// registrations are dropped. Usage windows die with the registrations; the
// paper's daemon keeps them in process memory, so a restart forgets usage
// history too.
func (m *Token) Suspend() {
	if m.roster.suspend() {
		m.retry.Stop()
		m.gate.suspend()
	}
}

// Waiting returns the number of clients with a pending admit — the token is
// device-global, so the id is irrelevant. The frontend uses it to release
// the token work-conservingly the moment a kernel completes while someone
// is queued.
func (m *Token) Waiting(id string) int { return len(m.queue) }

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
	return s
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
	c, err := m.admitting(id)
	if err != nil {
		return Lease{}, err
	}
	return m.admit(p, c)
}

// Release voluntarily returns the token. Stale releases (a token that
// already expired or was reassigned) are ignored. The token is
// device-global, so the holder's id identifies the client without a lookup.
func (m *Token) Release(id string, l Lease) {
	if h := m.holder; h != nil && h.id == id {
		m.release(h, l)
	}
}

// reclaim ends the turn, recording the holder's span in its usage window,
// and grants the next.
func (m *Token) reclaim() {
	if m.holder != nil {
		m.holder.window.AddSpan(m.grant, m.env.Now())
	}
	m.end()
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
	best := -1
	var bestKey float64
	bestBelow := false
	for i, c := range m.queue {
		usage := c.window.Rate(now)
		// Step 1: filter clients already at their maximum usage demand.
		if usage >= c.limit {
			continue
		}
		below := usage < c.request
		key := usage // Step 3: lowest usage wins
		if below {
			key = c.request - usage // Step 2: farthest below request wins
		}
		better := best < 0 ||
			(below && !bestBelow) ||
			(below == bestBelow && below && key > bestKey) ||
			(below == bestBelow && !below && key < bestKey)
		if better {
			best, bestBelow, bestKey = i, below, key
		}
	}
	if best < 0 {
		// Everyone queued is throttled at their limit; retry when the
		// window has slid forward by one quota.
		if !m.retry.Active() {
			m.retry = m.env.After(m.quota, m.schedule)
			m.throttles.Inc()
			m.recorder.Event("GPU", m.uuid, obs.EventWarning, "Throttled",
				strconv.Itoa(len(m.queue)), " queued clients all at gpu_limit")
		}
		return
	}
	c := m.queue[best]
	m.grants.Inc()
	m.waitHist.Observe((now - c.enqueued).Seconds())
	m.give(best)
}
