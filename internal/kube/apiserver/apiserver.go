// Package apiserver provides the kube-apiserver analogue: typed CRUD and
// watch access to the object store, with per-kind admission validation and
// optimistic-concurrency semantics. All cluster components — and KubeShare's
// custom controllers — interact exclusively through it.
//
// The client API distinguishes spec writes (Update/Mutate) from status
// writes (UpdateStatus/MutateStatus), mirroring the status subresource:
// a controller updating an object's status can never clobber a concurrent
// spec write and vice versa. Lists and watches are per kind, as the store
// is keyed, and can be narrowed server-side by exact name and label selector
// (ListSelector, WatchFiltered), answered from the store's indexes; what a
// watch wants is said one way, in the store's WatchOptions.
//
// Ownership follows the store's one rule (see package store): every result —
// what Get, List, ListSelector and a write return, what watch and reflector
// events and Scan/ScanSelector callbacks carry — is the shared read-only
// snapshot of a revision. The only objects a caller may write to are ones it
// built itself and the one Mutate/MutateStatus passes its closure — and in
// MutateStatus only its Status.
package apiserver

import (
	"errors"
	"fmt"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// WatchOptions is the store's: the server-side filters (exact name, bound
// node, owner kind, label selector) and whether to replay the current state
// first.
type WatchOptions = store.WatchOptions

// Server is the cluster's API frontend.
type Server struct {
	env        *sim.Env
	store      *store.Store
	validators map[string][]func(api.Object) error
	reflectors []*Reflector

	// Telemetry: the cluster-wide obs runtime plus cached request
	// counters. rt may be nil (observability off); the handles no-op.
	rt         *obs.Runtime
	reqWrites  *obs.Counter    // create/update/delete mutations admitted
	reqReads   *obs.Counter    // get/list/count/scan calls served
	reqWatches *obs.Counter    // watch subscriptions opened (incl. resumes)
	refResumes *obs.Counter    // reflector resume-from-revision reconnects
	refRelists *obs.Counter    // reflector relist-on-gap reconnects
	relistVec  *obs.CounterVec // relists partitioned by consumer component
	restarts   *obs.Counter    // crash/restore cycles survived
}

// New returns a server over a fresh store with its own enabled telemetry
// runtime (components sharing the server share the runtime via Obs).
func New(env *sim.Env) *Server { return NewWithObs(env, obs.New(env)) }

// NewWithObs returns a server instrumented against rt. A nil rt disables
// observability: every telemetry call site degrades to a no-op, which is
// the obs-off arm of the instrumentation-overhead benchmark. A non-nil
// rt gets the server installed as its event sink, persisting every
// recorded event as an api.Event object with list/watch semantics.
func NewWithObs(env *sim.Env, rt *obs.Runtime) *Server {
	s := &Server{
		env:        env,
		store:      store.New(env),
		validators: make(map[string][]func(api.Object) error),
		rt:         rt,
		reqWrites:  rt.Counter("kubeshare_apiserver_write_requests_total"),
		reqReads:   rt.Counter("kubeshare_apiserver_read_requests_total"),
		reqWatches: rt.Counter("kubeshare_apiserver_watches_total"),
		refResumes: rt.Counter("kubeshare_apiserver_reflector_resumes_total"),
		refRelists: rt.Counter("kubeshare_apiserver_reflector_relists_total"),
		relistVec:  rt.CounterVec("kubeshare_reflector_relist_total", "consumer"),
		restarts:   rt.Counter("kubeshare_apiserver_restarts_total"),
	}
	if rt != nil {
		rt.SetEventSink(newEventSink(s))
	}
	return s
}

// Store returns the backing store, for instrumentation that must not count
// as API traffic (storetest's canary); components go through the server.
func (s *Server) Store() *store.Store { return s.store }

// Obs returns the telemetry runtime the server was built with (nil when
// observability is off). Components constructed around the server pull
// their instrumentation handles from here.
func (s *Server) Obs() *obs.Runtime { return s.rt }

// RegisterValidator adds an admission validator for a kind, run on Create
// and Update. Registering custom-resource validators is how KubeShare
// installs its SharePod CRD checks.
func (s *Server) RegisterValidator(kind string, fn func(api.Object) error) {
	s.validators[kind] = append(s.validators[kind], fn)
}

func (s *Server) validate(obj api.Object) error {
	if obj.GetMeta().Name == "" {
		return fmt.Errorf("apiserver: %s with empty name", obj.Kind())
	}
	for _, fn := range s.validators[obj.Kind()] {
		if err := fn(obj); err != nil {
			return fmt.Errorf("apiserver: admission of %s: %w", api.Key(obj), err)
		}
	}
	return nil
}

// Create validates and stores a copy of obj. Every admitted create (other
// than Events themselves) roots or extends the object's causal trace chain,
// so a sharePod's life is traceable from the submit instant.
func (s *Server) Create(obj api.Object) (api.Object, error) {
	if err := s.validate(obj); err != nil {
		return nil, err
	}
	out, err := s.store.Create(obj)
	if err == nil {
		s.reqWrites.Inc()
		if out.Kind() != api.KindEvent {
			s.rt.Tracer().Mark("apiserver", "create", api.Key(out), "")
		}
	}
	return out, err
}

// Update validates and replaces obj (ErrConflict on stale version). For
// kinds with a status subresource the stored status is preserved — use
// UpdateStatus for status writes.
func (s *Server) Update(obj api.Object) (api.Object, error) {
	if err := s.validate(obj); err != nil {
		return nil, err
	}
	s.reqWrites.Inc()
	return s.store.Update(obj)
}

// UpdateStatus validates and replaces only obj's status, preserving the
// stored spec and metadata (the status subresource write).
func (s *Server) UpdateStatus(obj api.Object) (api.Object, error) {
	if err := s.validate(obj); err != nil {
		return nil, err
	}
	s.reqWrites.Inc()
	return s.store.UpdateStatus(obj)
}

// Get fetches one object's current snapshot.
func (s *Server) Get(kind, name string) (api.Object, error) {
	s.reqReads.Inc()
	return s.store.Get(kind, name)
}

// Delete removes one object.
func (s *Server) Delete(kind, name string) error {
	s.reqWrites.Inc()
	return s.store.Delete(kind, name)
}

// List returns the snapshots of all objects of a kind.
func (s *Server) List(kind string) []api.Object {
	s.reqReads.Inc()
	return s.store.List(kind)
}

// ListSelector returns the kind's objects whose labels match sel, answered
// from the store's label index.
func (s *Server) ListSelector(kind string, sel labels.Selector) []api.Object {
	s.reqReads.Inc()
	return s.store.ListSelector(kind, sel)
}

// Count returns the number of objects of a kind without listing them.
func (s *Server) Count(kind string) int {
	s.reqReads.Inc()
	return s.store.Count(kind)
}

// Scan iterates a kind's snapshots in name order (see store.Scan).
func (s *Server) Scan(kind string, fn func(api.Object) bool) {
	s.ScanSelector(kind, nil, fn)
}

// ScanSelector is Scan narrowed by label selector, answered from the
// store's label index. One read request, like ListSelector.
func (s *Server) ScanSelector(kind string, sel labels.Selector, fn func(api.Object) bool) {
	s.reqReads.Inc()
	s.store.ScanSelector(kind, sel, fn)
}

// Watch subscribes to a kind (list+watch when replay is true).
func (s *Server) Watch(kind string, replay bool) *sim.Queue[store.Event] {
	s.reqWatches.Inc()
	return s.store.Watch(kind, replay)
}

// WatchFiltered subscribes to a kind with server-side filtering by exact
// name and/or label selector; events the filter rejects are never
// delivered to the subscriber.
func (s *Server) WatchFiltered(kind string, opts WatchOptions) *sim.Queue[store.Event] {
	s.reqWatches.Inc()
	return s.store.WatchFiltered(kind, opts)
}

// WatchResume re-subscribes to a kind after a watch drop, replaying every
// matching event that committed after fromRev from the server's bounded
// event history. Returns ErrGone (see IsGone) when fromRev has been
// compacted — the caller must relist and watch fresh.
func (s *Server) WatchResume(kind string, opts WatchOptions, fromRev int64) (*sim.Queue[store.Event], error) {
	s.reqWatches.Inc()
	return s.store.WatchFilteredFrom(kind, opts, fromRev)
}

// Revision returns the store-wide revision of the last mutation — the
// resume point a fresh watch should record.
func (s *Server) Revision() int64 { return s.store.Revision() }

// SetWatchHistoryCap bounds the resumable-watch event history (tests use a
// small cap to force the relist-on-gap path).
func (s *Server) SetWatchHistoryCap(n int) { s.store.SetHistoryCap(n) }

// StopWatch cancels a watch.
func (s *Server) StopWatch(q *sim.Queue[store.Event]) { s.store.StopWatch(q) }

// IsNotFound reports whether err is a missing-object error.
func IsNotFound(err error) bool { return errors.Is(err, store.ErrNotFound) }

// IsConflict reports whether err is an optimistic-concurrency conflict.
func IsConflict(err error) bool { return errors.Is(err, store.ErrConflict) }

// IsExists reports whether err is an already-exists error.
func IsExists(err error) bool { return errors.Is(err, store.ErrExists) }

// IsGone reports whether err marks a compacted (unresumable) watch revision.
func IsGone(err error) bool { return errors.Is(err, store.ErrGone) }

// Client is a typed view of the server for one object kind. Everything it
// returns is a read-only snapshot (see the package comment).
type Client[T api.Object] struct {
	s    *Server
	kind string
}

// NewClient returns a typed client. kind must match T's Kind().
func NewClient[T api.Object](s *Server, kind string) Client[T] {
	return Client[T]{s: s, kind: kind}
}

// Create stores a copy of obj and returns the published snapshot.
func (c Client[T]) Create(obj T) (T, error) {
	var zero T
	out, err := c.s.Create(obj)
	if err != nil {
		return zero, err
	}
	return out.(T), nil
}

// Get fetches the current snapshot by name.
func (c Client[T]) Get(name string) (T, error) {
	var zero T
	out, err := c.s.Get(c.kind, name)
	if err != nil {
		return zero, err
	}
	return out.(T), nil
}

// Update replaces the stored object's spec and metadata. For kinds with a
// status subresource the stored status is preserved; use UpdateStatus to
// write status.
func (c Client[T]) Update(obj T) (T, error) {
	var zero T
	out, err := c.s.Update(obj)
	if err != nil {
		return zero, err
	}
	return out.(T), nil
}

// UpdateStatus replaces only the stored object's status (the status
// subresource write): the stored spec and metadata are kept whatever obj
// carries, so a controller reporting status can never clobber a spec write.
func (c Client[T]) UpdateStatus(obj T) (T, error) {
	var zero T
	out, err := c.s.UpdateStatus(obj)
	if err != nil {
		return zero, err
	}
	return out.(T), nil
}

// Delete removes by name.
func (c Client[T]) Delete(name string) error { return c.s.Delete(c.kind, name) }

// List returns the kind's snapshots, sorted by name.
func (c Client[T]) List() []T {
	return toTyped[T](c.s.List(c.kind))
}

// ListSelector returns the snapshots whose labels match sel, sorted by name.
// The query is answered from the store's label index in O(matching).
func (c Client[T]) ListSelector(sel labels.Selector) []T {
	return toTyped[T](c.s.ListSelector(c.kind, sel))
}

// Count returns the number of stored objects of the kind.
func (c Client[T]) Count() int { return c.s.Count(c.kind) }

// Scan calls fn on each snapshot in name order, stopping early when fn
// returns false: List without the result slice, for counters and samplers.
func (c Client[T]) Scan(fn func(T) bool) {
	c.s.Scan(c.kind, func(o api.Object) bool { return fn(o.(T)) })
}

func toTyped[T api.Object](objs []api.Object) []T {
	out := make([]T, len(objs))
	for i, o := range objs {
		out[i] = o.(T)
	}
	return out
}

// Watch subscribes to the kind.
func (c Client[T]) Watch(replay bool) *sim.Queue[store.Event] {
	return c.s.Watch(c.kind, replay)
}

// Mutate runs a read-modify-write loop against the spec: it fetches name,
// hands mutate a private deep copy to change and updates, retrying on
// version conflicts. mutate must be idempotent. Status changes made by mutate
// are discarded for kinds with a status subresource — use MutateStatus.
func (c Client[T]) Mutate(name string, mutate func(T) error) (T, error) {
	return c.mutate(name, mutate, false)
}

// MutateStatus is Mutate against the status subresource: only status
// changes made by mutate are persisted, and the object mutate receives owns
// only its Status — its spec and metadata (maps and slices included) are the
// stored snapshot's: read them, write only Status.
func (c Client[T]) MutateStatus(name string, mutate func(T) error) (T, error) {
	return c.mutate(name, mutate, true)
}

func (c Client[T]) mutate(name string, mutate func(T) error, statusOnly bool) (T, error) {
	var zero T
	write := c.Update
	if statusOnly {
		write = c.UpdateStatus
	}
	for {
		cur, err := c.Get(name)
		if err != nil {
			return zero, err
		}
		// cur is the shared snapshot; the closure gets a working object.
		var work T
		if sc, carries := api.Object(cur).(api.StatusCarrier); carries && statusOnly {
			work = sc.WithStatusFrom(sc).(T)
		} else {
			work = cur.DeepCopyObject().(T)
		}
		if err := mutate(work); err != nil {
			return zero, err
		}
		out, err := write(work)
		if err == nil {
			return out, nil
		}
		if !IsConflict(err) {
			return zero, err
		}
	}
}

// Pods returns the typed Pod client.
func Pods(s *Server) Client[*api.Pod] { return NewClient[*api.Pod](s, "Pod") }

// Nodes returns the typed Node client.
func Nodes(s *Server) Client[*api.Node] { return NewClient[*api.Node](s, "Node") }

// ReplicationControllers returns the typed RC client.
func ReplicationControllers(s *Server) Client[*api.ReplicationController] {
	return NewClient[*api.ReplicationController](s, "ReplicationController")
}
