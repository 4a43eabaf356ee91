package apiserver

import (
	"slices"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Reflector is a watch subscription that survives stream drops. It wraps a
// filtered watch and tracks the last revision the consumer observed; when
// the underlying stream closes, the next read transparently re-subscribes
// with WatchResume so the consumer misses nothing. When the resume point
// has been compacted out of the server's history (410 Gone), or the server
// restarted into a new epoch, the reflector relists the filtered state and
// synthesizes the difference against what the consumer has already seen:
// Added for new objects, Modified for survivors whose revision changed,
// Deleted for vanished ones. A survivor still at the revision last delivered
// gets no event, so consumer caches built purely from events stay correct
// across arbitrarily long disconnects and restarts, at the cost of the diff
// only. The exception is a restart whose torn tail reverted writes the
// stream never delivered: the consumer may hold one of them from its own
// writes or reads, so every survivor is sent again.
//
// Every event — live, resumed or synthesized — carries the store's shared
// read-only snapshot of that revision, and the reflector's own cache holds
// the same pointers: never write to one.
//
// Consumers open one with Server.Inform, whose loop proc hands each event
// to their handler.
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
	loop    *sim.Proc             // hands events to the handler; Stop ends it
	stopped bool
	// downUntil holds a dropped stream down: the reconnect waits for it
	// (DropFor).
	downUntil time.Duration

	resumes     int
	relists     int
	synthesized int          // events relists put in the backlog
	relistCtr   *obs.Counter // per-consumer child of kubeshare_reflector_relist_total
	onRelist    func(listed func(name string) bool)
}

// Inform is how a control loop consumes a watch: it subscribes to kind with
// server-side filtering and drop resilience and starts proc loop, which
// passes each event to handle. With opts.Replay the current matching objects
// are delivered first as Added events, exactly like WatchFiltered. consumer
// names the consuming component, so relists attribute to it in the
// kubeshare_reflector_relist_total{consumer} family — after an apiserver
// restart, that family shows exactly which control loops relisted. The
// returned reflector's Stop ends the loop too, so a loop never outlives its
// watch; handle must not call it.
func (s *Server) Inform(consumer, loop, kind string, opts WatchOptions, handle func(*sim.Proc, store.Event)) *Reflector {
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
	r.loop = s.env.Go(loop, func(p *sim.Proc) {
		for {
			ev := r.get(p)
			if s.onDeliver != nil {
				s.onDeliver(r, ev)
			}
			handle(p, ev)
		}
	})
	return r
}

// OnDeliver registers fn to observe every event a reflector hands its
// handler, just before the handler runs, in the reflector's loop proc. It
// adds no proc and no wake-up to the simulation. It exists for apitest's
// stream checker; fn gets the shared snapshot like the handler and must not
// write it. Register before the first Inform.
func (s *Server) OnDeliver(fn func(*Reflector, store.Event)) { s.onDeliver = fn }

// Kind returns the watched kind (chaos targets reflectors by kind).
func (r *Reflector) Kind() string { return r.kind }

// Options returns the filter the reflector watches and relists through.
func (r *Reflector) Options() WatchOptions { return r.opts }

// Epoch returns the server restart epoch of the current subscription. Every
// event the reflector delivers belongs to that epoch's history: a live event
// was committed in it, and a relisted object survived into it.
func (r *Reflector) Epoch() int64 { return r.epoch }

// String names the reflector as consumer/kind.
func (r *Reflector) String() string { return r.consumer + "/" + r.kind }

// Cached returns the snapshot of name last delivered, unless a delivery said
// it is gone: the consumer's view, shared and read-only like every event.
// After a relist that found name unchanged it is the relisted snapshot: the
// same revision and content as the one delivered, but after a restart not
// the same object.
func (r *Reflector) Cached(name string) (api.Object, bool) {
	obj, ok := r.known[name]
	return obj, ok
}

// Stats returns how many times the stream was resumed from history, how
// many times a compacted gap or a restart forced a relist, and how many
// events those relists synthesized.
func (r *Reflector) Stats() (resumes, relists, synthesized int) {
	return r.resumes, r.relists, r.synthesized
}

// get returns the next event, parking p while the stream is idle and
// reconnecting as needed. Only the loop calls it, and Stop kills the loop,
// so a stopped stream is never read.
func (r *Reflector) get(p *sim.Proc) store.Event {
	for {
		if len(r.backlog) > 0 {
			ev := r.backlog[0]
			r.backlog[0] = store.Event{}
			r.backlog = r.backlog[1:]
			r.observe(ev)
			return ev
		}
		if ev, ok := r.q.Get(p); ok {
			r.observe(ev)
			return ev
		}
		if wait := r.downUntil - p.Env().Now(); wait > 0 {
			p.Sleep(wait)
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
// restart epoch: the server's in-memory watch history died with the old
// process, so a restart always relists. The relist's diff is what the
// restore changed for this consumer, plus what was written since.
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
//
// A listed object still at the revision last delivered is the write the
// consumer saw, provided no restart since the last subscribe restored below
// that revision (the floor): it gets no event, and the cache takes the
// listed snapshot. Above the floor a torn tail may have reverted that write
// and a later one reused its revision, so an equal revision proves nothing
// and the object is re-sent as Modified. Within one epoch there is no floor.
// And when a restart since reverted a write the stream never delivered (it
// was down when the write was made), no survivor is skipped: a consumer that deleted an object the torn tail then restored
// holds the delete, and only an event tells it the object is back.
//
// Deletions are found by one pass over the cache, taken only when the list
// yielded fewer known names than the cache holds. The pass looks each name
// up in the store: the same state in the same instant as the list, so part
// of that one read rather than another.
func (r *Reflector) relist() {
	r.relists++
	r.srv.refRelists.Inc()
	r.relistCtr.Inc()
	if r.onRelist != nil {
		defer r.onRelist(r.listed)
	}
	floor := r.srv.store.RestoredFloor(r.epoch, r.srv.Epoch())
	if r.srv.store.RevertedUnseen(r.epoch, r.srv.Epoch(), r.lastRV) {
		floor = 0 // no survivor is skipped
	}
	r.epoch = r.srv.Epoch()
	fresh := r.opts
	fresh.Replay = false // the diff below stands in for the replay
	r.q = r.srv.WatchFiltered(r.kind, fresh)
	r.lastRV = r.srv.Revision()
	listed := 0
	r.srv.Scan(r.kind, func(obj api.Object) bool { // name order
		if !r.opts.Matches(obj) {
			return true
		}
		meta := obj.GetMeta()
		seen, ok := r.known[meta.Name]
		switch {
		case !ok:
			r.synthesize(store.Added, obj, meta.ResourceVersion)
			return true
		case seen.GetMeta().ResourceVersion == meta.ResourceVersion && meta.ResourceVersion <= floor:
			r.known[meta.Name] = obj
		default:
			r.synthesize(store.Modified, obj, meta.ResourceVersion)
		}
		listed++
		return true
	})
	if listed == len(r.known) {
		return
	}
	var gone []string
	for name := range r.known {
		if !r.listed(name) {
			gone = append(gone, name)
		}
	}
	slices.Sort(gone)
	for _, name := range gone {
		// The last snapshot the consumer saw, shared like any other.
		r.synthesize(store.Deleted, r.known[name], r.lastRV)
	}
}

// listed reports whether the relist in this instant found name.
func (r *Reflector) listed(name string) bool {
	obj, err := r.srv.store.Get(r.kind, name)
	return err == nil && r.opts.Matches(obj)
}

// OnRelist registers fn to run, without yielding, at the end of each relist;
// listed reports whether that relist found a name. An object made and gone
// while the stream was down, or one a torn tail reverted before the stream
// delivered it, is in neither the list nor the diff: listed is how a
// consumer keeping state under its name learns it is gone.
func (r *Reflector) OnRelist(fn func(listed func(name string) bool)) {
	r.onRelist = fn
}

// synthesize appends one relist event to the backlog.
func (r *Reflector) synthesize(typ store.EventType, obj api.Object, rev int64) {
	r.backlog = append(r.backlog, store.Event{Type: typ, Object: obj, Rev: rev})
	r.synthesized++
}

// Drop severs the current stream without stopping the reflector — the
// fault chaos injects. Events already in flight drain; the next read after
// the drain reconnects.
func (r *Reflector) Drop() { r.DropFor(0) }

// DropFor is Drop with the stream held down for d, a partitioned watch:
// after the drain the reconnect waits until d has passed, and what was
// written meanwhile arrives through the resume or the relist.
func (r *Reflector) DropFor(d time.Duration) {
	if r.stopped {
		return
	}
	r.downUntil = r.srv.env.Now() + d
	r.srv.StopWatch(r.q)
}

// Stop ends the subscription permanently, and the loop with it: the loop is
// killed before the watch closes, so closing wakes nothing.
func (r *Reflector) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.loop.Kill(nil)
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
