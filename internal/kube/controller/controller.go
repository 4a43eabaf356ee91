// Package controller provides the controller runtime of the simulated
// cluster: Runner, a work-queue reconciliation loop in the style of
// Kubernetes controllers, and NodeLifecycle. The SharePodSet manager and
// KubeShare-DevMgr's two reconcilers (vGPU and sharePod) run on the Runner;
// KubeShare-Sched (schedfw's cycle loop) does not.
package controller

import (
	"time"

	"kubeshare/internal/kube/backoff"
	"kubeshare/internal/sim"
)

// Reconcile processes one work-queue key. Returning an error requeues the
// key after the runner's backoff.
type Reconcile func(p *sim.Proc, key string) error

// DefaultBackoffCap bounds the per-key retry delay.
const DefaultBackoffCap = 5 * time.Second

// Runner is a reconciliation loop over a deduplicated work queue with
// per-key concurrency: keys reconcile independently, a key never has two
// reconciles in flight, and one enqueued during its reconcile runs once
// more after it. The worker starts each queued key in a proc of its own, so
// blocking reconciles overlap; Sync runs a non-blocking one in the caller.
// Failing keys retry under the shared backoff policy (decorrelated jitter
// seeded from runner name + key, so identical runs replay identically); a
// success resets the key's backoff.
type Runner struct {
	name       string
	env        *sim.Env
	queue      *sim.Queue[string]
	queued     map[string]bool
	inFlight   map[string]bool // key → another run was asked for meanwhile
	base       time.Duration
	backoffCap time.Duration
	failures   map[string]*backoff.Backoff
	fn         Reconcile
}

// NewRunner creates a runner; keys enqueued while already pending are
// coalesced. base is the base retry delay (default 100ms), growing per
// consecutive failure up to DefaultBackoffCap.
func NewRunner(env *sim.Env, name string, base time.Duration, fn Reconcile) *Runner {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	cap := DefaultBackoffCap
	if base > cap {
		cap = base
	}
	return &Runner{
		name:       name,
		env:        env,
		queue:      sim.NewQueue[string](env),
		queued:     make(map[string]bool),
		inFlight:   make(map[string]bool),
		base:       base,
		backoffCap: cap,
		failures:   make(map[string]*backoff.Backoff),
		fn:         fn,
	}
}

// Enqueue adds a key to the work queue (no-op when already pending).
func (r *Runner) Enqueue(key string) {
	if r.queued[key] {
		return
	}
	r.queued[key] = true
	r.queue.Put(key)
}

// EnqueueAfter schedules an Enqueue of key after d of virtual time — for
// reconcilers that defer work (replacement backoff) without failing the key.
func (r *Runner) EnqueueAfter(key string, d time.Duration) {
	r.env.After(d, func() { r.Enqueue(key) })
}

// retryDelay advances the key's backoff sequence, creating it on the first
// failure. Seeding by runner name + key keeps failure bursts across keys
// decorrelated while identical runs replay identically.
func (r *Runner) retryDelay(key string) time.Duration {
	b := r.failures[key]
	if b == nil {
		b = backoff.New(r.name+"/"+key, r.base, r.backoffCap)
		r.failures[key] = b
	}
	return b.Next()
}

// Sync reconciles key now in the caller's p (nil from a timer), which the
// reconcile must not block, or has the run in flight make one more pass.
func (r *Runner) Sync(p *sim.Proc, key string) {
	if _, busy := r.inFlight[key]; busy {
		r.inFlight[key] = true
		return
	}
	r.inFlight[key] = false
	for {
		if err := r.fn(p, key); err != nil {
			r.env.After(r.retryDelay(key), func() { r.Enqueue(key) })
		} else if r.failures[key] != nil {
			delete(r.failures, key)
		}
		if !r.inFlight[key] {
			break
		}
		r.inFlight[key] = false
	}
	delete(r.inFlight, key)
}

// Start launches the worker loop.
func (r *Runner) Start() {
	name := "controller-" + r.name
	r.env.Go(name, func(p *sim.Proc) {
		for {
			key, ok := r.queue.Get(p)
			if !ok {
				return
			}
			delete(r.queued, key)
			r.env.Go(name, func(p *sim.Proc) { r.Sync(p, key) })
		}
	})
}
