// Package controller provides the controller runtime of the simulated
// cluster: a work-queue reconciliation loop in the style of Kubernetes
// controllers, plus the ReplicationController built on it. KubeShare's two
// custom controllers (KubeShare-Sched and KubeShare-DevMgr) reuse the same
// Runner, which is the operator-pattern compatibility argument of §4.6.
package controller

import (
	"fmt"
	"strings"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/backoff"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
)

// Reconcile processes one work-queue key. Returning an error requeues the
// key after the runner's backoff.
type Reconcile func(p *sim.Proc, key string) error

// DefaultBackoffCap bounds the per-key retry delay.
const DefaultBackoffCap = 5 * time.Second

// Runner is a single-worker reconciliation loop over a deduplicated work
// queue. Failing keys are retried under the shared backoff policy
// (decorrelated jitter seeded from runner name + key, so identical runs
// replay identically); a successful reconcile resets the key's backoff.
type Runner struct {
	name       string
	env        *sim.Env
	queue      *sim.Queue[string]
	queued     map[string]bool
	base       time.Duration
	backoffCap time.Duration
	failures   map[string]*backoff.Backoff
	fn         Reconcile
	proc       *sim.Proc
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

// Start launches the worker loop.
func (r *Runner) Start() {
	r.proc = r.env.Go("controller-"+r.name, func(p *sim.Proc) {
		for {
			key, ok := r.queue.Get(p)
			if !ok {
				return
			}
			delete(r.queued, key)
			if err := r.fn(p, key); err != nil {
				key := key
				r.env.After(r.retryDelay(key), func() { r.Enqueue(key) })
			} else if r.failures[key] != nil {
				delete(r.failures, key)
			}
		}
	})
}

// Stop terminates the worker loop.
func (r *Runner) Stop() {
	if r.proc != nil {
		r.proc.Kill(nil)
	}
}

// rcKind is the owner kind of RC-created pods; rcOwnerPrefix qualifies their
// OwnerName references.
const (
	rcKind        = "ReplicationController"
	rcOwnerPrefix = rcKind + "/"
)

// ReplicationManager reconciles ReplicationController objects: it keeps
// Replicas pods matching each controller's selector alive, creating and
// deleting pods as needed.
type ReplicationManager struct {
	env    *sim.Env
	srv    *apiserver.Server
	runner *Runner
	serial int
}

// NewReplicationManager creates the manager; Start launches its watches.
func NewReplicationManager(env *sim.Env, srv *apiserver.Server) *ReplicationManager {
	m := &ReplicationManager{env: env, srv: srv}
	m.runner = NewRunner(env, "replication", 0, m.reconcile)
	return m
}

// Start begins watching RCs and pods and reconciling. The watches go
// through named reflectors so an apiserver restart — which closes every raw
// watch queue for good — only costs a relist, not the manager's liveness.
func (m *ReplicationManager) Start() {
	rcR := m.srv.NewNamedReflector("rc-manager", rcKind, apiserver.WatchOptions{Replay: true})
	// Owner references are kind-qualified keys; the watch delivers only pods
	// owned by ReplicationControllers — other controllers (e.g. KubeShare's
	// DevMgr) own pods too.
	podR := m.srv.NewNamedReflector("rc-manager", "Pod", apiserver.WatchOptions{Replay: true, OwnerKind: rcKind})
	m.env.Go("rc-watch", func(p *sim.Proc) {
		for {
			ev, ok := rcR.Get(p)
			if !ok {
				return
			}
			m.runner.Enqueue(ev.Object.GetMeta().Name)
		}
	})
	m.env.Go("rc-watch-pods", func(p *sim.Proc) {
		for {
			ev, ok := podR.Get(p)
			if !ok {
				return
			}
			m.runner.Enqueue(strings.TrimPrefix(ev.Object.GetMeta().OwnerName, rcOwnerPrefix))
		}
	})
	m.runner.Start()
}

func (m *ReplicationManager) reconcile(p *sim.Proc, name string) error {
	rcs := apiserver.ReplicationControllers(m.srv)
	rc, err := rcs.Get(name)
	if err != nil {
		if apiserver.IsNotFound(err) {
			m.cleanupOrphans(name)
			return nil
		}
		return err
	}
	pods := apiserver.Pods(m.srv)
	var owned []*api.Pod
	live := 0
	// The selector narrows the scan to label-matching pods via the store's
	// index; the owner check still runs here (ownership is metadata, not a
	// label).
	for _, pod := range pods.ListSelector(labels.Set(rc.Selector)) {
		if pod.OwnerName != rcOwnerPrefix+name || !rc.MatchesLabels(pod.Labels) {
			continue
		}
		owned = append(owned, pod)
		if !pod.Terminated() {
			live++
		}
	}
	for live < rc.Replicas {
		m.serial++
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{
				Name:      fmt.Sprintf("%s-%d", rc.Name, m.serial),
				Labels:    rc.TemplateLabels,
				OwnerName: rcOwnerPrefix + rc.Name,
			},
			Spec: rc.Template.Clone(),
		}
		if _, err := pods.Create(pod); err != nil {
			return fmt.Errorf("replication %s: create: %w", name, err)
		}
		live++
	}
	// Scale down newest-first for determinism.
	for i := len(owned) - 1; i >= 0 && live > rc.Replicas; i-- {
		if owned[i].Terminated() {
			continue
		}
		if err := pods.Delete(owned[i].Name); err != nil && !apiserver.IsNotFound(err) {
			return err
		}
		live--
	}
	ready := 0
	for _, pod := range owned {
		if pod.Status.Phase == api.PodRunning {
			ready++
		}
	}
	if rc.ReadyReplicas != ready {
		_, err := rcs.Mutate(name, func(cur *api.ReplicationController) error {
			cur.ReadyReplicas = ready
			return nil
		})
		if err != nil && !apiserver.IsNotFound(err) {
			return err
		}
	}
	return nil
}

// cleanupOrphans deletes pods owned by a removed controller.
func (m *ReplicationManager) cleanupOrphans(owner string) {
	pods := apiserver.Pods(m.srv)
	for _, pod := range pods.List() {
		if pod.OwnerName == rcOwnerPrefix+owner {
			_ = pods.Delete(pod.Name)
		}
	}
}
