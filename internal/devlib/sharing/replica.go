package sharing

import (
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Replica is the replica time-slicing strategy: the device advertises N
// logical GPUs, one gate each. Clients are assigned to gates round-robin at
// registration and take plain FIFO quota-length turns on theirs — no usage
// windows, no gpu_request/gpu_limit arbitration. Gates are concurrent with
// respect to each other (their holders' kernels overlap on the physical
// device under gpusim's processor sharing), which is exactly the NVIDIA
// time-slicing device-plugin model: predictable turn order per replica, no
// cross-replica compute isolation.
type Replica struct {
	roster
	gates    []*gate
	nextSlot int // registration round-robin cursor
}

// NewReplica creates the strategy with n logical GPUs (min 1) and the given
// turn quota. rt may be nil (telemetry disabled).
func NewReplica(env *sim.Env, uuid string, n int, quota time.Duration, rt *obs.Runtime) *Replica {
	if n < 1 {
		n = 1
	}
	if quota <= 0 {
		quota = 100 * time.Millisecond
	}
	admits := rt.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With(uuid, string(ModeReplica))
	devtime := rt.CounterVec("kubeshare_sharing_devtime_ns_total", "gpu_uuid", "tenant")
	r := &Replica{roster: newRoster(uuid), gates: make([]*gate, n)}
	for i := range r.gates {
		g := newGate(env, uuid, quota, admits, devtime)
		g.schedule = g.fifo
		g.expireFn = func() {
			g.end()
			g.fifo()
		}
		r.gates[i] = g
	}
	return r
}

// fifo grants a free gate to its longest-waiting client: Replica's whole
// policy.
func (g *gate) fifo() {
	if g.holder == nil && len(g.queue) > 0 {
		g.give(0)
	}
}

// Mode returns ModeReplica.
func (r *Replica) Mode() Mode { return ModeReplica }

// Gated reports true: turns expire and are re-admitted.
func (r *Replica) Gated() bool { return true }

// Register assigns the client to the next logical GPU round-robin.
func (r *Replica) Register(id string, res Resources) error {
	if err := r.check(id); err != nil {
		return err
	}
	r.add(id).gate = r.gates[r.nextSlot%len(r.gates)]
	r.nextSlot++
	return nil
}

// Unregister removes a client: a pending admit is abandoned and a held turn
// reclaimed immediately.
func (r *Replica) Unregister(id string) {
	if c := r.remove(id); c != nil {
		c.gate.drop(c)
	}
}

// Admit blocks p until id's gate grants it a turn. A client already holding
// a valid turn gets it back immediately.
func (r *Replica) Admit(p *sim.Proc, id string) (Lease, error) {
	c, err := r.admitting(id)
	if err != nil {
		return Lease{}, err
	}
	return c.gate.admit(p, c)
}

// Release voluntarily ends the turn. Stale leases are ignored.
func (r *Replica) Release(id string, l Lease) {
	if c := r.clients[id]; c != nil {
		c.gate.release(c, l)
	}
}

// Waiting returns the number of clients queued on id's gate (0 for unknown
// ids): holding the turn only delays gate-mates.
func (r *Replica) Waiting(id string) int {
	if c := r.clients[id]; c != nil {
		return len(c.gate.queue)
	}
	return 0
}

// Suspend fails every queued admit with ErrDown, invalidates turns and
// drops registrations, mirroring the token strategy's crash semantics.
func (r *Replica) Suspend() {
	if r.suspend() {
		for _, g := range r.gates {
			g.suspend()
		}
		r.nextSlot = 0
	}
}

// UsageRate returns 0: replica turns do not meter window usage; fairness
// is structural (round-robin turns).
func (r *Replica) UsageRate(id string) float64 { return 0 }

// Stats snapshots the strategy. Holder is the first busy gate's holder.
func (r *Replica) Stats() Stats {
	s := Stats{Clients: len(r.clients)}
	for _, g := range r.gates {
		s.QueueDepth += len(g.queue)
		s.Handoffs += g.handoffs
		if s.Holder == "" && g.holder != nil {
			s.Holder = g.holder.id
		}
	}
	return s
}
