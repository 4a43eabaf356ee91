package sim

import "fmt"

// Resource is a counting semaphore over an integer capacity, used to model
// finite pools (CPU slots, image-pull bandwidth, admission tickets).
// Waiters are served FIFO; a request is granted only when the full amount is
// available, so large requests are not starved by a stream of small ones —
// but they do block smaller requests behind them (strict FIFO, no bypass),
// which keeps grant order deterministic and fair.
type Resource struct {
	env      *Env
	capacity int64
	used     int64
	waiters  fifo[resWaiter]
}

type resWaiter struct {
	ref waiterRef
	n   int64
}

// NewResource returns a resource with the given capacity.
func NewResource(env *Env, capacity int64) *Resource {
	if capacity < 0 {
		panic("sim: negative Resource capacity")
	}
	return &Resource{env: env, capacity: capacity}
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the currently acquired amount.
func (r *Resource) InUse() int64 { return r.used }

// TryAcquire acquires n units if available without blocking. It reports
// whether the acquisition succeeded. Requests are still subject to FIFO
// fairness: TryAcquire fails while earlier waiters are parked.
func (r *Resource) TryAcquire(n int64) bool {
	if n < 0 {
		panic("sim: negative acquire")
	}
	if n > r.capacity {
		return false
	}
	if r.waiters.len() > 0 || r.used+n > r.capacity {
		return false
	}
	r.used += n
	return true
}

// Acquire parks p until n units are available and then acquires them.
// Acquiring more than the capacity panics (it could never succeed).
func (r *Resource) Acquire(p *Proc, n int64) {
	p.checkRunning()
	if n > r.capacity {
		panic(fmt.Sprintf("sim: Acquire(%d) exceeds capacity %d", n, r.capacity))
	}
	if r.TryAcquire(n) {
		return
	}
	w := r.env.newWaiter(p)
	r.waiters.push(resWaiter{ref: waiterRef{w: w, gen: w.gen}, n: n})
	p.park()
	// The grant (used += n) was performed by Release on our behalf.
	r.env.recycleWaiter(w)
}

// Release returns n units and grants as many parked waiters, in FIFO order,
// as now fit.
func (r *Resource) Release(n int64) {
	if n < 0 {
		panic("sim: negative release")
	}
	r.used -= n
	if r.used < 0 {
		panic("sim: Resource released below zero")
	}
	for r.waiters.len() > 0 {
		rw := r.waiters.peek()
		if rw.ref.stale() { // killed waiter: discard without granting
			r.waiters.pop()
			continue
		}
		if r.used+rw.n > r.capacity {
			return // strict FIFO: head doesn't fit, nobody behind it goes
		}
		granted := r.waiters.pop()
		r.used += granted.n
		w := granted.ref.w
		w.woken = true
		w.ok = true
		r.env.enqueue(r.env.now, w.p, nil)
	}
}
