package apiserver

import (
	"sort"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Reflector is a watch subscription that survives stream drops. It wraps a
// filtered watch and tracks the last revision the consumer observed; when
// the underlying stream closes, the next Get transparently re-subscribes
// with WatchResume so the consumer misses nothing. When the resume point
// has been compacted out of the server's history (410 Gone), the reflector
// relists the filtered state and synthesizes the difference against what
// the consumer has already seen — Added for new objects, Modified for
// survivors, Deleted for vanished ones — so consumer caches built purely
// from events stay correct across arbitrarily long disconnects.
//
// Every event — live, resumed or synthesized — carries the store's shared
// read-only snapshot of that revision, and the reflector's own cache holds
// the same pointers: never write to one.
//
// Consumers call Get in a loop exactly as with sim.Queue: it returns
// (event, true), parking the proc while the stream is idle, and
// (zero, false) only after Stop.
type Reflector struct {
	srv      *Server
	kind     string
	consumer string
	opts     WatchOptions

	q       *sim.Queue[store.Event]
	lastRV  int64
	epoch   int64                 // server restart epoch at last (re)subscribe
	known   map[string]api.Object // last snapshot delivered per name (shared)
	backlog []store.Event         // synthesized relist events awaiting delivery
	stopped bool

	resumes   int
	relists   int
	relistCtr *obs.Counter // per-consumer child of kubeshare_reflector_relist_total
}

// NewNamedReflector subscribes to a kind with server-side filtering and drop
// resilience. With opts.Replay the current matching objects are delivered
// first as Added events, exactly like WatchFiltered. consumer names the
// consuming component, so relists attribute to it in the
// kubeshare_reflector_relist_total{consumer} family — after an apiserver
// restart, that family shows exactly which control loops re-synced.
func (s *Server) NewNamedReflector(consumer, kind string, opts WatchOptions) *Reflector {
	r := &Reflector{
		srv: s, kind: kind, consumer: consumer, opts: opts,
		known:     make(map[string]api.Object),
		relistCtr: s.relistVec.With(consumer),
	}
	r.q = s.WatchFiltered(kind, opts)
	// The watch is registered and the replay snapshot buffered in the same
	// instant, so the current revision is exactly the resume point: every
	// later mutation either lands in the queue or is recoverable from
	// history past this revision.
	r.lastRV = s.Revision()
	r.epoch = s.Epoch()
	s.reflectors = append(s.reflectors, r)
	return r
}

// Kind returns the watched kind (chaos targets reflectors by kind).
func (r *Reflector) Kind() string { return r.kind }

// Stats returns how many times the stream was resumed from history and how
// many times a compacted gap forced a relist.
func (r *Reflector) Stats() (resumes, relists int) { return r.resumes, r.relists }

// Get returns the next event, reconnecting as needed. ok is false only
// after Stop.
func (r *Reflector) Get(p *sim.Proc) (store.Event, bool) {
	for {
		if len(r.backlog) > 0 {
			ev := r.backlog[0]
			r.backlog[0] = store.Event{}
			r.backlog = r.backlog[1:]
			r.observe(ev)
			return ev, true
		}
		if ev, ok := r.q.Get(p); ok {
			r.observe(ev)
			return ev, true
		}
		if r.stopped {
			return store.Event{}, false
		}
		r.reconnect()
	}
}

// observe advances the resume cursor and the known-object cache.
func (r *Reflector) observe(ev store.Event) {
	if ev.Rev > r.lastRV {
		r.lastRV = ev.Rev
	}
	name := ev.Object.GetMeta().Name
	if ev.Type == store.Deleted {
		delete(r.known, name)
	} else {
		r.known[name] = ev.Object
	}
}

// reconnect re-establishes the subscription after a drop: resume from the
// last observed revision when the history still covers it, else relist and
// synthesize the diff into the backlog. Resume is never attempted across a
// restart epoch — the server's in-memory watch state died with the old
// process, and a torn-tail restore may have reverted mutations this
// consumer already observed, so only a relist-with-resync is sound.
func (r *Reflector) reconnect() {
	if e := r.srv.Epoch(); e == r.epoch {
		q, err := r.srv.WatchResume(r.kind, r.opts, r.lastRV)
		if err == nil {
			r.resumes++
			r.srv.refResumes.Inc()
			r.q = q
			return
		}
	}
	r.relist()
}

// relist handles the unrecoverable-gap path (410 Gone, or a restart
// epoch): subscribe fresh, snapshot the revision, and diff the filtered
// list against the consumer's view. Registration, revision and list happen
// without a yield, so the diff is atomic with the new subscription.
func (r *Reflector) relist() {
	r.relists++
	r.srv.refRelists.Inc()
	r.relistCtr.Inc()
	r.epoch = r.srv.Epoch()
	fresh := r.opts
	fresh.Replay = false // the diff below stands in for the replay
	r.q = r.srv.WatchFiltered(r.kind, fresh)
	r.lastRV = r.srv.Revision()
	cur := make(map[string]api.Object)
	var upserts []string // name order, as the scan yields them
	r.srv.ScanSelector(r.kind, r.opts.Selector, func(obj api.Object) bool {
		if r.opts.Matches(obj) {
			name := obj.GetMeta().Name
			cur[name] = obj
			upserts = append(upserts, name)
		}
		return true
	})
	var gone []string
	for name := range r.known {
		if _, ok := cur[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range upserts {
		typ := store.Added
		if _, seen := r.known[name]; seen {
			typ = store.Modified
		}
		r.backlog = append(r.backlog, store.Event{Type: typ, Object: cur[name], Rev: cur[name].GetMeta().ResourceVersion})
	}
	for _, name := range gone {
		// The last snapshot the consumer saw, shared like any other.
		r.backlog = append(r.backlog, store.Event{Type: store.Deleted, Object: r.known[name], Rev: r.lastRV})
	}
}

// Drop severs the current stream without stopping the reflector — the
// fault chaos injects. Events already in flight drain; the next Get after
// the drain reconnects.
func (r *Reflector) Drop() {
	if r.stopped {
		return
	}
	r.srv.StopWatch(r.q)
}

// Stop ends the subscription permanently; pending Gets return ok=false.
func (r *Reflector) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.srv.StopWatch(r.q)
	for i, other := range r.srv.reflectors {
		if other == r {
			r.srv.reflectors = append(r.srv.reflectors[:i], r.srv.reflectors[i+1:]...)
			break
		}
	}
}

// Reflectors returns the live reflectors, optionally narrowed to one kind
// ("" matches all). Chaos uses this to pick watch-drop targets.
func (s *Server) Reflectors(kind string) []*Reflector {
	var out []*Reflector
	for _, r := range s.reflectors {
		if kind == "" || r.kind == kind {
			out = append(out, r)
		}
	}
	return out
}
