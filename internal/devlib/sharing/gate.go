package sharing

import (
	"fmt"
	"slices"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// client is one registered container, the entry every strategy keeps in its
// roster. The gated strategies queue it on a gate; Token also reads its
// demand and usage window.
type client struct {
	id     string
	tenant string // owning sharePod name; defaults to id until SetTenant

	gate     *gate      // the gate Replica assigned the client to
	queued   *sim.Event // pending admit, nil when none
	admit    *sim.Event // cached admit event, Reset and reused per Admit
	granted  Lease      // the grant, parked here for the proc that admit's firing wakes
	enqueued time.Duration
	hold     *obs.Counter // cached hold-time child under tenant

	request float64      // Token: guaranteed minimum usage share (gpu_request)
	limit   float64      // Token: maximum usage share (gpu_limit)
	window  *usageWindow // Token: hold spans within the sliding usage window
}

// roster is the registration table all three strategies embed: the device,
// its registered clients, and whether the strategy is suspended.
type roster struct {
	uuid    string
	clients map[string]*client
	down    bool
}

func newRoster(uuid string) roster {
	return roster{uuid: uuid, clients: make(map[string]*client)}
}

// check refuses a Register while suspended or of a known id.
func (r *roster) check(id string) error {
	if r.down {
		return ErrDown
	}
	if _, ok := r.clients[id]; ok {
		return fmt.Errorf("sharing: client %q already registered on %s", id, r.uuid)
	}
	return nil
}

// add registers a client under id, its tenant defaulting to id.
func (r *roster) add(id string) *client {
	c := &client{id: id, tenant: id}
	r.clients[id] = c
	return c
}

// remove unregisters id and returns its client (nil when unknown).
func (r *roster) remove(id string) *client {
	c := r.clients[id]
	delete(r.clients, id)
	return c
}

// admitting returns id's client for an Admit, or an error that satisfies
// errors.Is(err, ErrDown) while suspended or for an unknown id.
func (r *roster) admitting(id string) (*client, error) {
	if r.down {
		return nil, ErrDown
	}
	c, ok := r.clients[id]
	if !ok {
		return nil, fmt.Errorf("sharing: admit by unregistered client %q: %w", id, ErrDown)
	}
	return c, nil
}

// suspend marks the strategy down and forgets every registration (a
// restarted daemon has no memory of its clients; surviving frontends
// re-register on reconnect). It reports false when already down.
func (r *roster) suspend() bool {
	if r.down {
		return false
	}
	r.down = true
	r.clients = make(map[string]*client)
	return true
}

// SetTenant attributes id's usage to tenant (the owning sharePod). Frontends
// call it right after Register — including after a reconnect re-register —
// so the attribution survives suspend/resume. Unknown ids and empty tenants
// are ignored.
func (r *roster) SetTenant(id, tenant string) {
	c, ok := r.clients[id]
	if !ok || tenant == "" || c.tenant == tenant {
		return
	}
	c.tenant = tenant
	c.hold = nil // re-fetched lazily under the new tenant label
}

// Registered reports whether id is a known client.
func (r *roster) Registered(id string) bool {
	_, ok := r.clients[id]
	return ok
}

// Clients returns the number of registered clients.
func (r *roster) Clients() int { return len(r.clients) }

// Resume brings a suspended strategy back (the replacement vGPU pod is
// serving). Clients must Register again before admitting.
func (r *roster) Resume() { r.down = false }

// Down reports whether the strategy is suspended.
func (r *roster) Down() bool { return r.down }

// gate is one turn (§4.5's token; Replica has one per logical GPU): a FIFO
// of clients with a pending admit and at most one holder, whose turn lasts
// at most one quota. Which queued client is granted is the owner's policy,
// bound into schedule (pick one and call give) and expireFn (call end,
// record whatever else the owner meters, schedule the next turn).
type gate struct {
	env      *sim.Env
	gpu      string // device UUID, the hold family's gpu_uuid label
	quota    time.Duration
	queue    []*client
	holder   *client
	grant    time.Duration // when the holder's turn began
	seq      uint64        // fences Release: bumped per grant and per suspend
	handoffs int64         // turns granted (Stats.Handoffs)
	expiry   sim.Timer
	// Bound once: scheduling a method value per (re)arm would allocate a
	// closure.
	schedule func()
	expireFn func()
	admits   *obs.Counter    // kubeshare_sharing_admits_total child
	holdVec  *obs.CounterVec // per-tenant hold time, labels gpu_uuid and tenant
}

func newGate(env *sim.Env, uuid string, quota time.Duration, admits *obs.Counter, holdVec *obs.CounterVec) *gate {
	return &gate{env: env, gpu: uuid, quota: quota, admits: admits, holdVec: holdVec}
}

// admit blocks p until c holds the turn and returns its lease; the holder
// gets its current lease back at once. Each client admits serially, so its
// admit event is reused across admits, and p waits on it even when schedule
// granted the turn synchronously.
func (g *gate) admit(p *sim.Proc, c *client) (Lease, error) {
	if g.holder == c {
		return Lease{ExpiresAt: g.grant + g.quota, Seq: g.seq, Gated: true}, nil
	}
	if c.queued != nil {
		return Lease{}, fmt.Errorf("sharing: client %q has a concurrent admit in flight", c.id)
	}
	ev := c.admit
	if ev == nil {
		ev = sim.NewEvent(g.env)
		c.admit = ev
	} else {
		ev.Reset()
	}
	c.queued = ev
	c.enqueued = g.env.Now()
	g.queue = append(g.queue, c)
	g.schedule() // may grant synchronously, clearing c.queued
	if err, ok := p.Wait(ev).(error); ok {
		return Lease{}, err // suspended while waiting
	}
	return c.granted, nil
}

// give grants the turn to queue[i]. The lease is parked on the client and
// its admit event fired with nil: a Lease passed through Trigger's `any`
// would be boxed on the heap per grant.
func (g *gate) give(i int) {
	c := g.queue[i]
	// Shift down rather than reslice: queue[1:] gives up the front's
	// capacity, and a one-deep queue would then reallocate on every admit.
	g.queue = append(g.queue[:i], g.queue[i+1:]...)
	g.seq++
	g.handoffs++
	g.admits.Inc()
	g.holder = c
	g.grant = g.env.Now()
	c.granted = Lease{ExpiresAt: g.grant + g.quota, Seq: g.seq, Gated: true}
	g.expiry = g.env.After(g.quota, g.expireFn)
	ev := c.queued
	c.queued = nil
	ev.Trigger(nil)
}

// end closes the current turn: the holder's hold time goes to its tenant
// and the expiry stops.
func (g *gate) end() {
	if c := g.holder; c != nil {
		// The hold child is fetched at the first turn's end rather than at
		// Register, so clients that never run leave no zero-valued series and
		// the label reflects the tenant set by install time.
		if c.hold == nil {
			c.hold = g.holdVec.With(g.gpu, c.tenant)
		}
		c.hold.Add(int64(g.env.Now() - g.grant))
		g.holder = nil
	}
	g.expiry.Stop()
}

// release ends registered client c's turn early if l is its current lease;
// stale leases (a turn that already ended, or one granted before a suspend)
// are ignored.
func (g *gate) release(c *client, l Lease) {
	if c == g.holder && l.Seq == g.seq {
		g.expireFn()
	}
}

// drop abandons c's pending admit and ends its turn if it holds one.
func (g *gate) drop(c *client) {
	if i := slices.Index(g.queue, c); i >= 0 {
		g.queue = slices.Delete(g.queue, i, i+1)
	}
	if g.holder == c {
		g.expireFn()
	}
}

// suspend models the daemon's death: the turn ends unaccounted, its lease is
// fenced, and every queued admit fails with ErrDown.
func (g *gate) suspend() {
	g.expiry.Stop()
	g.holder = nil
	g.seq++ // invalidate Release of any lease granted before the crash
	for _, c := range g.queue {
		ev := c.queued
		c.queued = nil
		ev.Trigger(ErrDown)
	}
	g.queue = nil
}
