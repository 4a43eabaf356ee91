// Package store implements the etcd analogue backing the API server: a
// versioned object store with optimistic concurrency, keyed by kind and
// name, with lists and watches per kind. Each mutation bumps a store-wide
// revision; every object carries the revision of its last write as its
// ResourceVersion.
//
// Objects are kept in per-kind buckets with a sorted name index and
// a label posting index (key → value → names), so lists, selector queries
// and watch fan-out cost O(matching objects) instead of O(all keys).
// Watches can be filtered server-side by kind, exact name, bound node, owner
// kind and label selector — subscribers never receive events they would
// discard.
//
// # Concurrency
//
// One RWMutex guards everything: reads share it, and a write holds it
// across commit, WAL append, watch fan-out and the history append, so
// revision order, log order, delivery order and history order are all the
// same order. Every exported method may be called from any goroutine; in
// the simulator the only caller is the simulation goroutine. Two rules:
// the virtual clock must not advance while mutators run off the simulation
// goroutine (Create reads env.Now), and hooks (OnPublish, the durability
// hooks) must not call back into the store — Revision and Epoch are
// lock-free and exempt.
//
// # Ownership
//
// The object committed at a revision is immutable from the moment it is
// published, and there is exactly one of it: what the bucket holds, what the
// history keeps, and what everything the store hands out carries — every
// watcher queue (live, replayed or resumed), Scan and ScanSelector
// callbacks, Get, List, ListSelector, and the return value of Create, Update
// and UpdateStatus. A later write to the same key publishes a new object and
// never touches the old one, so a write costs the same however many
// subscribers watch, a snapshot stays a faithful record of its revision for
// as long as anyone keeps it, and goroutine readers holding one need no lock.
//
// The store copies on the way in, never on the way out: Create and Update
// deep-copy their argument, and a status write copies only the status — the
// new revision shares its spec and metadata with the one before
// (api.StatusCarrier.WithStatusFrom). Results are therefore read-only: to
// change an object, write back a changed DeepCopyObject of it
// (apiserver.Client.Mutate does).
package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
)

// Mutation errors.
var (
	// ErrNotFound is returned for reads and writes of missing keys.
	ErrNotFound = errors.New("store: object not found")
	// ErrExists is returned by Create when the key is already present.
	ErrExists = errors.New("store: object already exists")
	// ErrConflict is returned by Update when the caller's ResourceVersion is
	// stale (optimistic-concurrency failure).
	ErrConflict = errors.New("store: resource version conflict")
	// ErrGone is returned by WatchFilteredFrom when the requested revision
	// has been compacted out of the event history; the subscriber must
	// relist and start a fresh watch (the 410 Gone of the kube watch
	// protocol).
	ErrGone = errors.New("store: requested revision compacted")
)

// DefaultHistoryCap bounds the event history kept for resumable watches.
const DefaultHistoryCap = 4096

// EventType classifies watch events.
type EventType string

// Watch event types.
const (
	Added    EventType = "ADDED"
	Modified EventType = "MODIFIED"
	Deleted  EventType = "DELETED"
)

// Event is one watch notification. Object is the shared read-only snapshot
// committed at that revision — the same pointer reaches every subscriber,
// every reader, the history and the bucket, so never write to it; for Deleted
// events it is the last published state. Rev is the store-wide revision the
// mutation committed at — for Added/Modified it equals the object's
// ResourceVersion; for Deleted it is the revision the deletion consumed (the
// snapshot keeps its pre-delete version).
type Event struct {
	Type   EventType
	Object api.Object
	Rev    int64
}

// WatchOptions says what a watch of a kind wants, filtered server-side. The
// zero value subscribes to every later mutation of the kind. Every filter is
// evaluated on the event's own object — for Deleted events the last stored
// one — so an object that comes to match by a later write (a pod bound to
// the node) first reaches the watcher as Modified.
type WatchOptions struct {
	// Name restricts delivery to the object with this exact name.
	Name string
	// Node restricts delivery to objects bound to this node
	// (api.NodeBound); kinds that are never bound match no node.
	Node string
	// OwnerKind restricts delivery to objects whose OwnerName is
	// "<OwnerKind>/<name>" — what a controller of that kind created.
	OwnerKind string
	// Selector restricts delivery to objects whose labels match. Nil matches
	// all.
	Selector labels.Selector
	// Replay delivers the currently matching objects first as Added events
	// (list+watch semantics). A resume (WatchFilteredFrom) replays history
	// instead and ignores it.
	Replay bool
}

// Matches reports whether obj passes every filter: the one place that
// decides whether a watcher sees an object, for live delivery, replay,
// resume and a reflector's relist alike.
func (o WatchOptions) Matches(obj api.Object) bool {
	meta := obj.GetMeta()
	if o.Name != "" && o.Name != meta.Name {
		return false
	}
	if o.Node != "" {
		if nb, ok := obj.(api.NodeBound); !ok || nb.BoundNode() != o.Node {
			return false
		}
	}
	if k := o.OwnerKind; k != "" {
		if owner := meta.OwnerName; len(owner) <= len(k) || owner[len(k)] != '/' || owner[:len(k)] != k {
			return false
		}
	}
	return o.Selector == nil || o.Selector.Matches(meta.Labels)
}

// watcher fans events out to one subscriber. It lives in its kind's bucket
// and is only visited for mutations of that kind.
type watcher struct {
	opts  WatchOptions
	queue *sim.Queue[Event]
}

// bucket holds one kind's objects plus its indexes.
type bucket struct {
	objs map[string]api.Object // name → published snapshot (immutable)
	// sorted is objs' names in order: Create and Delete insert and remove
	// the one name in place (under the store's write lock, which excludes
	// every reader), restore sorts once at its end.
	sorted []string
	// byLabel is the posting index: label key → value → set of names.
	byLabel map[string]map[string]map[string]struct{}
	// watchers subscribed to this kind, in registration order.
	watchers []*watcher
}

func newBucket() *bucket {
	return &bucket{
		objs:    make(map[string]api.Object),
		byLabel: make(map[string]map[string]map[string]struct{}),
	}
}

// addName files a new object's name; one sorting last — serial names mostly
// do — is an append.
func (b *bucket) addName(name string) {
	i := len(b.sorted)
	if i > 0 && name < b.sorted[i-1] {
		i, _ = slices.BinarySearch(b.sorted, name)
	}
	b.sorted = slices.Insert(b.sorted, i, name)
}

func (b *bucket) indexLabels(name string, lbls map[string]string) {
	for k, v := range lbls {
		vals, ok := b.byLabel[k]
		if !ok {
			vals = make(map[string]map[string]struct{})
			b.byLabel[k] = vals
		}
		set, ok := vals[v]
		if !ok {
			set = make(map[string]struct{})
			vals[v] = set
		}
		set[name] = struct{}{}
	}
}

func (b *bucket) unindexLabels(name string, lbls map[string]string) {
	for k, v := range lbls {
		if vals, ok := b.byLabel[k]; ok {
			if set, ok := vals[v]; ok {
				delete(set, name)
				if len(set) == 0 {
					delete(vals, v)
				}
			}
			if len(vals) == 0 {
				delete(b.byLabel, k)
			}
		}
	}
}

// Store is the versioned object store.
type Store struct {
	env *sim.Env

	// mu guards every field below. rev, nextUID and epoch are only written
	// under it but are atomic, so Revision and Epoch stay lock-free for the
	// hooks that run inside a write.
	mu      sync.RWMutex
	rev     atomic.Int64
	nextUID atomic.Int64
	kinds   map[string]*bucket

	// The bounded mutation log backing resumable watches. Live entries are
	// history[histHead:]; the head advances instead of shifting, with an
	// amortized compaction once the dead head dominates. Entries carry the
	// published snapshots themselves.
	history    []Event
	histHead   int
	histCap    int
	compactRev int64 // revision of the newest event dropped from history

	// Durability (see wal.go): dur is the simulated durable medium — nil
	// until EnableDurability, leaving the WAL append path a single nil
	// check. epoch counts crash/restore cycles; the hooks surface WAL and
	// checkpoint activity to the telemetry layer without the store
	// importing obs.
	dur          *Durable
	epoch        atomic.Int64
	onWALAppend  func(records int)
	onCheckpoint func(bytes int)

	// onPublish observes every published event (see OnPublish); nil outside
	// instrumented tests.
	onPublish func(Event)
}

// New returns an empty store.
func New(env *sim.Env) *Store {
	return &Store{env: env, histCap: DefaultHistoryCap, kinds: make(map[string]*bucket)}
}

// OnPublish registers fn to observe every event the store publishes. fn runs
// synchronously inside the write, under the store's lock, before any
// watcher queue receives the event — so it sees each snapshot before any
// consumer can, which no queue subscriber does — and it adds no proc and no
// wake-up to the simulation. It exists for storetest's mutation canary; fn
// gets the shared snapshot like everyone else and must not read or write
// the store (the lock-free Epoch and Revision are fine). Register before
// mutators run.
func (s *Store) OnPublish(fn func(Event)) { s.onPublish = fn }

// Revision returns the store-wide revision of the last mutation.
func (s *Store) Revision() int64 { return s.rev.Load() }

// SetHistoryCap bounds the resumable-watch event history to n entries
// (default DefaultHistoryCap). Shrinking compacts immediately; resumes from
// before the compaction point return ErrGone. n <= 0 disables history, so
// every resume relists.
func (s *Store) SetHistoryCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.histCap = n
	s.trimHistory()
}

// record appends a mutation to the history. Callers hold the write lock, so
// history order is commit order.
func (s *Store) record(ev Event) {
	if s.histCap <= 0 {
		if ev.Rev > s.compactRev {
			s.compactRev = ev.Rev
		}
		return
	}
	s.history = append(s.history, ev)
	s.trimHistory()
}

func (s *Store) trimHistory() {
	for len(s.history)-s.histHead > s.histCap && s.histHead < len(s.history) {
		if rv := s.history[s.histHead].Rev; rv > s.compactRev {
			s.compactRev = rv
		}
		s.history[s.histHead] = Event{}
		s.histHead++
	}
	if s.histHead > len(s.history)/2 && s.histHead > 64 {
		live := copy(s.history, s.history[s.histHead:])
		for i := live; i < len(s.history); i++ {
			s.history[i] = Event{}
		}
		s.history = s.history[:live]
		s.histHead = 0
	}
}

// bucketOf returns the kind's bucket, creating it if needed. Caller holds
// the write lock.
func (s *Store) bucketOf(kind string) *bucket {
	b, ok := s.kinds[kind]
	if !ok {
		b = newBucket()
		s.kinds[kind] = b
	}
	return b
}

// kindNames returns all kind names sorted — the one order anything that
// walks every kind (Checkpoint, Crash) uses. Caller holds the lock.
func (s *Store) kindNames() []string {
	out := make([]string, 0, len(s.kinds))
	for k := range s.kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Create inserts a copy of obj, assigning UID, CreationTime and
// ResourceVersion, and returns the published snapshot (read-only).
func (s *Store) Create(obj api.Object) (api.Object, error) {
	kind := obj.Kind()
	name := obj.GetMeta().Name
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bucketOf(kind)
	if _, ok := b.objs[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, api.Key(obj))
	}
	stored := obj.DeepCopyObject()
	meta := stored.GetMeta()
	rv := s.rev.Add(1)
	meta.ResourceVersion = rv
	meta.UID = fmt.Sprintf("uid-%d", s.nextUID.Add(1))
	meta.CreationTime = s.env.Now()
	b.objs[name] = stored
	b.addName(name)
	b.indexLabels(name, meta.Labels)
	s.notify(b, Event{Added, stored, rv})
	return stored, nil
}

// Update publishes a new revision built from a copy of obj and returns it
// (the read-only snapshot). obj must carry the ResourceVersion the caller
// read; a stale version yields ErrConflict. UID and CreationTime are
// preserved from the stored object. For kinds with a status subresource
// (api.StatusCarrier) the stored status is preserved too — status writes go
// through UpdateStatus.
func (s *Store) Update(obj api.Object) (api.Object, error) {
	return s.update(obj, false)
}

// UpdateStatus publishes a new revision carrying a copy of obj's status over
// the stored spec and metadata (labels, annotations, owner), shared with the
// previous revision — the status-subresource write; the rest of obj is
// ignored. Objects that are no api.StatusCarrier get a whole-object Update.
func (s *Store) UpdateStatus(obj api.Object) (api.Object, error) {
	return s.update(obj, true)
}

func (s *Store) update(obj api.Object, statusOnly bool) (api.Object, error) {
	kind := obj.Kind()
	name := obj.GetMeta().Name
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bucketOf(kind)
	cur, ok := b.objs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, api.Key(obj))
	}
	curMeta := cur.GetMeta()
	if obj.GetMeta().ResourceVersion != curMeta.ResourceVersion {
		return nil, fmt.Errorf("%w: %s (have %d, stored %d)", ErrConflict,
			api.Key(obj), obj.GetMeta().ResourceVersion, curMeta.ResourceVersion)
	}
	var stored api.Object
	sc, carries := cur.(api.StatusCarrier)
	statusOnly = statusOnly && carries
	if statusOnly {
		// Stored spec + metadata (shared, labels included), caller's status.
		stored = sc.WithStatusFrom(obj)
	} else {
		stored = obj.DeepCopyObject()
		if carries {
			// Caller's spec + metadata, stored status.
			stored = stored.(api.StatusCarrier).WithStatusFrom(cur)
		}
	}
	meta := stored.GetMeta()
	rv := s.rev.Add(1)
	meta.ResourceVersion = rv
	meta.UID = curMeta.UID
	meta.CreationTime = curMeta.CreationTime
	b.objs[name] = stored
	if !statusOnly {
		b.unindexLabels(name, curMeta.Labels)
		b.indexLabels(name, meta.Labels)
	}
	s.notify(b, Event{Modified, stored, rv})
	return stored, nil
}

// Delete removes the object by key.
func (s *Store) Delete(kind, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bucketOf(kind)
	cur, ok := b.objs[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, api.KeyOf(kind, name))
	}
	delete(b.objs, name)
	if i, ok := slices.BinarySearch(b.sorted, name); ok {
		b.sorted = slices.Delete(b.sorted, i, i+1)
	}
	b.unindexLabels(name, cur.GetMeta().Labels)
	rv := s.rev.Add(1)
	s.notify(b, Event{Deleted, cur, rv})
	return nil
}

// Get returns the object's current snapshot (read-only) by key.
func (s *Store) Get(kind, name string) (api.Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b := s.kinds[kind]; b != nil {
		if obj, ok := b.objs[name]; ok {
			return obj, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, api.KeyOf(kind, name))
}

// Count returns the number of objects of a kind.
func (s *Store) Count(kind string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b := s.kinds[kind]; b != nil {
		return len(b.objs)
	}
	return 0
}

// List returns the snapshots (read-only, in a fresh slice) of all objects of
// a kind, sorted by name: one consistent cut of the kind.
func (s *Store) List(kind string) []api.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b := s.kinds[kind]; b != nil {
		return b.snapshots()
	}
	return nil
}

// snapshots returns the bucket's shared snapshots in name order.
func (b *bucket) snapshots() []api.Object {
	out := make([]api.Object, len(b.sorted))
	for i, n := range b.sorted {
		out[i] = b.objs[n]
	}
	return out
}

// Scan calls fn on each of kind's snapshots in name order, stopping early
// when fn returns false: List without the result slice, for samplers,
// aggregate metrics and relists. Same read-only contract (see the package
// comment's Ownership section); fn may keep what it is shown. Scan holds the
// read lock while fn runs, so fn must not write the store.
func (s *Store) Scan(kind string, fn func(api.Object) bool) {
	s.ScanSelector(kind, nil, fn)
}

// ScanSelector is Scan narrowed to the objects whose labels match sel (nil
// or empty matches all), answered from the label posting index like
// ListSelector. Same contract: shared read-only snapshots, name order.
func (s *Store) ScanSelector(kind string, sel labels.Selector, fn func(api.Object) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := s.kinds[kind]
	if b == nil {
		return
	}
	if sel == nil || sel.Empty() {
		// Samplers scan every tick: walk the index, build no slice.
		for _, n := range b.sorted {
			if !fn(b.objs[n]) {
				return
			}
		}
		return
	}
	for _, obj := range b.selectSnapshots(sel) {
		if !fn(obj) {
			return
		}
	}
}

// ListSelector returns the snapshots (read-only) of the kind's objects whose
// labels match sel, sorted by name. Equality and existence requirements are
// answered from the label posting index; the smallest posting set drives the
// scan.
func (s *Store) ListSelector(kind string, sel labels.Selector) []api.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := s.kinds[kind]
	if b == nil {
		return nil
	}
	return b.selectSnapshots(sel)
}

// selectSnapshots returns the held bucket's shared snapshots matching sel,
// in name order.
func (b *bucket) selectSnapshots(sel labels.Selector) []api.Object {
	if sel == nil || sel.Empty() {
		return b.snapshots()
	}
	candidates := b.candidateNames(sel)
	if candidates == nil {
		// No indexable requirement: full (sorted) scan.
		var out []api.Object
		for _, n := range b.sorted {
			if sel.Matches(b.objs[n].GetMeta().Labels) {
				out = append(out, b.objs[n])
			}
		}
		return out
	}
	sort.Strings(candidates)
	var out []api.Object
	for _, n := range candidates {
		obj, ok := b.objs[n]
		if ok && sel.Matches(obj.GetMeta().Labels) {
			out = append(out, obj)
		}
	}
	return out
}

// candidateNames returns the smallest posting set usable for sel, or nil
// when no requirement is indexable (caller falls back to a full scan). The
// result may contain false positives; callers must re-check Matches.
func (b *bucket) candidateNames(sel labels.Selector) []string {
	bestSize := -1
	var best []string
	for _, r := range sel.Requirements() {
		var size int
		switch r.Op {
		case labels.Equals:
			size = len(b.byLabel[r.Key][r.Value])
		case labels.Exists:
			for _, set := range b.byLabel[r.Key] {
				size += len(set)
			}
		default:
			continue // not indexable; filter-only
		}
		if bestSize == -1 || size < bestSize {
			bestSize = size
			best = nil
			switch r.Op {
			case labels.Equals:
				for n := range b.byLabel[r.Key][r.Value] {
					best = append(best, n)
				}
			case labels.Exists:
				for _, set := range b.byLabel[r.Key] {
					for n := range set {
						best = append(best, n)
					}
				}
			}
			if size == 0 {
				return []string{}
			}
		}
	}
	return best
}

// Watch subscribes to mutations of a kind. When replay is true, the kind's
// current objects are delivered first as Added events (list+watch
// semantics). Cancel the watch with StopWatch.
func (s *Store) Watch(kind string, replay bool) *sim.Queue[Event] {
	return s.WatchFiltered(kind, WatchOptions{Replay: replay})
}

// WatchFiltered is Watch narrowed by server-side filters: events are only
// delivered for objects passing opts (WatchOptions.Matches: exact name, bound
// node, owner kind and/or label selector), and opts.Replay delivers the
// currently matching objects as Added events. The filters run in the store,
// so subscribers never pay for events they would discard — the kube way of
// keeping watch fan-out O(interested parties). Registration (replay +
// subscribe) is atomic under the write lock, so no mutation is missed or
// duplicated across the boundary.
func (s *Store) WatchFiltered(kind string, opts WatchOptions) *sim.Queue[Event] {
	w := &watcher{opts: opts, queue: sim.NewQueue[Event](s.env)}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bucketOf(kind)
	if opts.Replay {
		for _, obj := range replayBucket(b, opts) {
			w.queue.Put(Event{Added, obj, obj.GetMeta().ResourceVersion})
		}
	}
	b.watchers = append(b.watchers, w)
	return w.queue
}

// WatchFilteredFrom resumes a dropped watch: it subscribes like
// WatchFiltered but first replays, from the event history, every matching
// mutation that committed after fromRev — so a subscriber that recorded the
// last revision it saw misses nothing across a disconnect. When fromRev
// predates the compaction horizon the gap is unrecoverable and ErrGone is
// returned; the subscriber must relist and start fresh.
func (s *Store) WatchFilteredFrom(kind string, opts WatchOptions, fromRev int64) (*sim.Queue[Event], error) {
	w := &watcher{opts: opts, queue: sim.NewQueue[Event](s.env)}
	// The write lock spans replay + subscribe, so a concurrent mutation is
	// either in the replayed history or delivered live.
	s.mu.Lock()
	defer s.mu.Unlock()
	if rev := s.rev.Load(); fromRev > rev {
		// The subscriber observed a revision the store no longer has — a
		// torn-tail restore reverted mutations it saw. Its cache may hold
		// phantom state; only a relist can reconcile it.
		return nil, fmt.Errorf("%w: from %d, store at %d (reverted by restore)", ErrGone, fromRev, rev)
	}
	if fromRev < s.compactRev {
		return nil, fmt.Errorf("%w: from %d, compacted through %d", ErrGone, fromRev, s.compactRev)
	}
	for _, ev := range s.history[s.histHead:] {
		if ev.Rev <= fromRev {
			continue
		}
		if ev.Object.Kind() != kind || !opts.Matches(ev.Object) {
			continue
		}
		w.queue.Put(ev)
	}
	b := s.bucketOf(kind)
	b.watchers = append(b.watchers, w)
	return w.queue, nil
}

// replayBucket lists the snapshots a filtered watch replays from a held
// bucket: the indexes narrow the candidates, Matches decides.
func replayBucket(b *bucket, opts WatchOptions) []api.Object {
	var out []api.Object
	if opts.Name == "" {
		out = b.selectSnapshots(opts.Selector) // a fresh slice, filtered in place
	} else if obj, ok := b.objs[opts.Name]; ok {
		out = []api.Object{obj}
	}
	return slices.DeleteFunc(out, func(obj api.Object) bool { return !opts.Matches(obj) })
}

// StopWatch cancels a subscription created by Watch and closes its queue.
func (s *Store) StopWatch(q *sim.Queue[Event]) {
	s.mu.Lock()
	found := false
	for _, b := range s.kinds {
		if i := slices.IndexFunc(b.watchers, func(w *watcher) bool { return w.queue == q }); i >= 0 {
			b.watchers = slices.Delete(b.watchers, i, i+1)
			found = true
			break
		}
	}
	s.mu.Unlock()
	if found {
		q.Close()
	}
}

// notify publishes one committed mutation: it logs it, puts the same Event —
// the same snapshot pointer — on every matching queue of the kind's watchers
// and records it in the resumable history. Nothing is copied, so the cost of
// a write does not depend on how many subscribers watch. Callers hold the
// write lock, which makes delivery order revision order on every queue.
func (s *Store) notify(b *bucket, ev Event) {
	s.logMutation(ev)
	if s.onPublish != nil {
		s.onPublish(ev)
	}
	for _, w := range b.watchers {
		if w.opts.Matches(ev.Object) {
			w.queue.Put(ev)
		}
	}
	s.record(ev)
}
