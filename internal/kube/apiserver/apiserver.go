// Package apiserver provides the kube-apiserver analogue: typed CRUD and
// watch access to the object store, with per-kind admission validation and
// optimistic-concurrency semantics. All cluster components — and KubeShare's
// custom controllers — interact exclusively through it.
//
// The client API distinguishes spec writes (Mutate) from status writes
// (MutateStatus), mirroring the status subresource: a controller updating
// an object's status can never clobber a concurrent spec write and vice
// versa. A placement writes both in one revision (Bind), as Kubernetes'
// pods/binding does. These three read-modify-write loops are the one way to
// change an object that exists. Lists and watches are per kind, as the store
// is keyed; a watch can be narrowed server-side (WatchFiltered), and what it
// wants is said one way, in the store's WatchOptions.
//
// Reads follow one rule: a component reads a kind it informs on from its own
// Reflector (Cached). Only the three writes must Get, since optimistic
// concurrency needs the stored version; any other Get says in a comment why
// the cache cannot answer (a miss may be an object undelivered or gone).
//
// Ownership follows the store's one rule (see package store): every result —
// what Get, List and a write return, what watch and reflector events and
// Scan callbacks carry — is the shared read-only snapshot of a revision. The
// only objects a caller may write to are ones it built itself and the one
// a write passes its closure — in MutateStatus only its Status, in Bind its
// Status and scalar spec fields. A write publishes the object it is handed,
// uncopied — what a caller passes to Create, what a closure changed — so
// that object must not be written to afterwards, nor share a map or slice
// with anything that is.
package apiserver

import (
	"errors"
	"fmt"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// WatchOptions is the store's: the server-side filters (exact name, bound
// node, owner kind, label key) and whether to replay the current state
// first.
type WatchOptions = store.WatchOptions

// Server is the cluster's API frontend.
type Server struct {
	env        *sim.Env
	store      *store.Store
	validators map[string][]func(api.Object) error
	reflectors []*Reflector
	onDeliver  func(*Reflector, store.Event) // see OnDeliver; nil outside tests

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
// the obs-off arm of the instrumentation-overhead benchmark. Telemetry
// only reads the server: rt's events stay in its own log, so a run makes
// the same API traffic with rt nil or not.
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
// and on each write a Mutate, MutateStatus or Bind makes. Registering
// custom-resource validators is how KubeShare installs its SharePod CRD
// checks.
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

// Create validates obj, which the caller gives up, and has the store publish
// it itself (store.Insert); on an error obj is untouched. Every admitted
// create roots or extends the object's causal trace chain, so a sharePod's
// life is traceable from the submit instant.
func (s *Server) Create(obj api.Object) (api.Object, error) {
	if err := s.validate(obj); err != nil {
		return nil, err
	}
	out, err := s.store.Insert(obj)
	if err == nil {
		s.reqWrites.Inc()
		s.rt.Tracer().Mark("apiserver", "create", api.KeyOf(out.Kind(), out.GetMeta().Name))
	}
	return out, err
}

// commit validates obj, a working object the caller gives up, and has the
// store publish it as the next revision (store.Commit) under verb.
// ErrConflict on a stale version.
func (s *Server) commit(obj api.Object, verb store.Verb) (api.Object, error) {
	if err := s.validate(obj); err != nil {
		return nil, err
	}
	s.reqWrites.Inc()
	return s.store.Commit(obj, verb)
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

// Count returns the number of objects of a kind without listing them.
func (s *Server) Count(kind string) int {
	s.reqReads.Inc()
	return s.store.Count(kind)
}

// Scan iterates a kind's snapshots in name order (see store.Scan).
func (s *Server) Scan(kind string, fn func(api.Object) bool) {
	s.reqReads.Inc()
	s.store.Scan(kind, fn)
}

// Watch subscribes to a kind (list+watch when replay is true).
func (s *Server) Watch(kind string, replay bool) *sim.Queue[store.Event] {
	s.reqWatches.Inc()
	return s.store.Watch(kind, replay)
}

// WatchFiltered subscribes to a kind with server-side filtering (see
// WatchOptions); events the filter rejects are never delivered to the
// subscriber.
func (s *Server) WatchFiltered(kind string, opts WatchOptions) *sim.Queue[store.Event] {
	s.reqWatches.Inc()
	return s.store.WatchFiltered(kind, opts)
}

// WatchResume re-subscribes to a kind after a watch drop, replaying every
// matching event that committed after fromRev from the server's bounded
// event history. Returns an error wrapping store.ErrGone when fromRev has
// been compacted — the caller must relist and watch fresh.
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

// Create publishes obj itself and returns it (Server.Create): the caller must
// not write to obj, nor to a map or slice in it, once Create has succeeded.
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

// Delete removes by name.
func (c Client[T]) Delete(name string) error { return c.s.Delete(c.kind, name) }

// List returns the kind's snapshots, sorted by name.
func (c Client[T]) List() []T {
	return toTyped[T](c.s.List(c.kind))
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
// hands mutate a private deep copy to change and writes it, retrying on
// version conflicts with a fresh copy. mutate must be idempotent. Status
// changes made by mutate are discarded for kinds with a status subresource —
// use MutateStatus, or Bind to write both. The store publishes the object
// mutate changed as the new revision, without copying it again: mutate must
// not keep it, nor any map or slice it put into it, past its return.
func (c Client[T]) Mutate(name string, mutate func(T) error) (T, error) {
	return c.mutate(name, mutate, store.VerbSpec)
}

// MutateStatus is Mutate against the status subresource: only status
// changes made by mutate are persisted, and the object mutate receives owns
// only its Status — its spec and metadata (maps and slices included) are the
// stored snapshot's: read them, write only Status. As in Mutate, that object
// becomes the published revision: mutate must not keep it.
func (c Client[T]) MutateStatus(name string, mutate func(T) error) (T, error) {
	return c.mutate(name, mutate, store.VerbStatus)
}

// Bind is MutateStatus widened to the spec's scalar fields, the placement
// write: mutate receives the same object (the stored spec and metadata, its
// own Status) and may write Status and scalar spec fields such as a node
// name, never a map or slice, which are the stored snapshot's. The store
// publishes that object whole, so spec and status change in one revision.
func (c Client[T]) Bind(name string, mutate func(T) error) (T, error) {
	return c.mutate(name, mutate, store.VerbBind)
}

func (c Client[T]) mutate(name string, mutate func(T) error, verb store.Verb) (T, error) {
	var zero T
	for {
		cur, err := c.Get(name)
		if err != nil {
			return zero, err
		}
		// cur is the shared snapshot; the closure gets a working object.
		var work T
		if sc, carries := api.Object(cur).(api.StatusCarrier); carries && verb != store.VerbSpec {
			work = sc.WithStatusFrom(sc).(T)
		} else {
			work = cur.DeepCopyObject().(T)
		}
		if err := mutate(work); err != nil {
			return zero, err
		}
		out, err := c.s.commit(work, verb)
		if err == nil {
			return out.(T), nil
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
