package store_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
)

// The durability oracle: seeded random histories of writes, checkpoints, log
// damage and crashes run against the real store and, in lockstep, against a
// model small enough to be obviously right — a map of objects, a saved copy
// of it (the checkpoint) and a list of the records written since, each with
// the size of its frame. After every crash the store must be exactly what the
// model says the longest valid prefix of that list rebuilds. The one thing
// the model takes from the implementation is each frame's byte length (from
// DurableSizes), which it needs to know what a truncation by n bytes cuts.
//
// The same histories open watchers at random points — kind-wide, exact-name,
// label-key, exact-name+label-key, node-scoped, owner-scoped and
// node+label-key, with and without replay — drop some and resume them from
// the last revision they saw. The model keeps, per watcher, the list of
// events a filter written out by hand lets through; after every step each
// live queue must hold exactly that list (so a stream has no gap, no
// duplicate and no event out of revision order), every event must carry the
// one object published at its revision (the same pointer on every queue and
// as the write returned), and after a crash every queue is closed, in kind
// name then registration order.
//
// A status write to a kind with a status subresource keeps the stored labels,
// so a label-key watcher is shown it exactly when the stored object carries
// the key, whatever labels the write's argument had.

type opKind int

const (
	opCreate opKind = iota
	opUpdate
	opUpdateStatus
	opDelete
	opCheckpoint
	opTear
	opCrash
	opWatch
	opDrop
	opResume
	numOpKinds
)

var opNames = [...]string{"create", "update", "updateStatus", "delete", "checkpoint", "tear", "crash", "watch", "drop", "resume"}

// opWeights is how often each kind of step is drawn, out of opWeightSum:
// writes outnumber control steps.
var opWeights = [numOpKinds]int{opCreate: 5, opUpdate: 5, opUpdateStatus: 5, opDelete: 3,
	opCheckpoint: 2, opTear: 2, opCrash: 2, opWatch: 4, opDrop: 2, opResume: 2}

const opWeightSum = 32

// oracleHistoryCap is the resumable history the oracle's stores keep: small,
// so a resume after a few writes meets the compaction horizon.
const oracleHistoryCap = 8

// op is one step of a history. It is plain data — nothing in it depends on
// the state it will meet — so a history can lose any of its steps and still
// run, which is what shrinking needs.
type op struct {
	kind  opKind
	obj   string // object kind
	name  string
	val   int  // label and payload variation
	node  int  // which of oracleNodes a pod is bound to
	owner int  // which of oracleOwners the object carries
	shape int  // watch: the filter's shape; see sees
	stale bool // update with a stale ResourceVersion; watch: replay
	n     int  // tear: bytes to cut; <= 0 flips the last byte
	w     int  // drop, resume: which watcher
}

func (o op) String() string {
	switch o.kind {
	case opCheckpoint, opCrash:
		return opNames[o.kind]
	case opTear:
		return fmt.Sprintf("tear(%d)", o.n)
	case opDrop, opResume:
		return fmt.Sprintf("%s #%d", opNames[o.kind], o.w)
	case opWatch:
		return fmt.Sprintf("watch %s shape %d (name %s) replay=%v", o.obj, o.shape, o.name, o.stale)
	}
	s := fmt.Sprintf("%s %s/%s v%d node=%q owner=%q", opNames[o.kind], o.obj, o.name, o.val, oracleNodes[o.node], oracleOwners[o.owner])
	if o.stale {
		s += " stale"
	}
	return s
}

var oracleKinds = []string{"Pod", "Node", core.KindSharePod, core.KindVGPU, core.KindSharePodSet}

// What the node and owner filters are tried on: a pod unbound and bound to
// each of three nodes (so histories hold the unbound → bound update, and the
// rebinding no scheduler does), and owners of three kinds, one a prefix of
// another.
var (
	oracleNodes  = []string{"", "n0", "n1", "n2"}
	oracleOwners = []string{"", "ReplicationController/a", "SharePodSet/a", "SharePod/a"}
)

// numShapes is how many filter shapes a watch op draws from.
const numShapes = 9

// sortedKinds is oracleKinds in name order, which is also the order of their
// keys.
var sortedKinds = func() []string {
	out := append([]string(nil), oracleKinds...)
	sort.Strings(out)
	return out
}()

func randomHistory(rng *simrand.Source, n int) []op {
	h := make([]op, n)
	// A history writes to between one and all of the kinds: the fewer, the
	// more of its writes any one watcher is shown.
	kinds := rng.Perm(len(oracleKinds))[:1+rng.Intn(len(oracleKinds))]
	for i := range h {
		var o op
		for r := rng.Intn(opWeightSum); r >= opWeights[o.kind]; o.kind++ {
			r -= opWeights[o.kind]
		}
		o.obj = oracleKinds[kinds[rng.Intn(len(kinds))]]
		o.name = fmt.Sprintf("o%d", rng.Intn(5))
		o.val = rng.Intn(4)
		o.node, o.owner, o.shape = rng.Intn(len(oracleNodes)), rng.Intn(len(oracleOwners)), rng.Intn(numShapes)
		o.stale = rng.Intn(6) == 0
		o.n = rng.Intn(120) - 20
		o.w = rng.Intn(8)
		h[i] = o
	}
	return h
}

// build makes the object a write carries: labels (nil, empty, one or two
// keys), a spec field and a status field that all vary with val, the owner,
// and for a pod the node it is bound to.
func build(kind, name string, val int, node, owner string) api.Object {
	obj, err := api.NewObject(kind)
	if err != nil {
		panic(err)
	}
	meta := obj.GetMeta()
	meta.Name, meta.OwnerName = name, owner
	switch val {
	case 1:
		meta.Labels = map[string]string{}
	case 2:
		meta.Labels = map[string]string{"tier": "t2"}
	case 3:
		meta.Labels = map[string]string{"tier": "t3", "app": name}
	}
	tag := fmt.Sprintf("v%d", val)
	switch o := obj.(type) {
	case *api.Pod:
		o.Spec.NodeName, o.Status.Message = node, tag
		o.Spec.Containers = []api.Container{{Name: "c", Env: map[string]string{"K": tag}, Requests: api.ResourceList{api.ResourceCPU: int64(val)}}}
	case *api.Node:
		o.Status.Capacity, o.Status.Ready = api.ResourceList{api.ResourceGPU: int64(val)}, val%2 == 0
	case *core.SharePod:
		o.Spec.GPURequest, o.Spec.GPUID, o.Status.Message = float64(val)/4, tag, tag
	case *core.VGPU:
		o.Spec.GPUID, o.Status.UUID = tag, tag
	case *core.SharePodSet:
		o.Replicas, o.Gang, o.Template.GPUMem = val, val%2 == 1, float64(val)/8
	}
	return obj
}

// withStatus returns a copy of spec carrying status's status — the model's
// own statement of the status-subresource rule, kind by kind.
func withStatus(spec, status api.Object) api.Object {
	out := spec.DeepCopyObject()
	switch o := out.(type) {
	case *api.Pod:
		o.Status = status.(*api.Pod).Status
	case *api.Node:
		o.Status = status.DeepCopyObject().(*api.Node).Status
	case *core.SharePod:
		o.Status = status.(*core.SharePod).Status
	case *core.VGPU:
		o.Status = status.(*core.VGPU).Status
	}
	return out
}

// record is one logged write as the model remembers it.
type record struct {
	rev  int64
	key  string
	obj  api.Object // nil for a delete
	size int        // bytes of its frame still on the medium
	// damage: cut once a truncation ends inside the frame, flipped while its
	// last byte is inverted (a second flip restores it).
	cut, flipped bool
}

type state struct {
	objs         map[string]api.Object
	rev, nextUID int64
}

func (s state) clone() state {
	out := state{objs: make(map[string]api.Object, len(s.objs)), rev: s.rev, nextUID: s.nextUID}
	for k, o := range s.objs {
		out.objs[k] = o // published objects are never written again
	}
	return out
}

type model struct {
	state
	epoch      int64
	checkpoint state
	log        []record

	// The watch side: the events still resumable (the last oracleHistoryCap
	// published since the last crash), the revision of the newest one that is
	// not, and the watchers in registration order — live ones, and dropped
	// ones that may yet resume.
	events        []store.Event
	compact       int64
	live, dropped []*watch
}

// watch is one subscriber as the model sees it.
type watch struct {
	id    int
	kind  string
	shape int    // which filter; see sees
	name  string // the exact name shapes 1 and 3 ask for
	q     *sim.Queue[store.Event]
	want  []store.Event // what the model says q holds and nobody has compared yet
	last  int64         // the resume point: the newest revision seen, at least the one registered at
}

// options is the filter as the store is told it.
func (w *watch) options() store.WatchOptions {
	switch w.shape {
	case 1:
		return store.WatchOptions{Name: w.name}
	case 2:
		return store.WatchOptions{Label: "tier"}
	case 3:
		return store.WatchOptions{Name: w.name, Label: "app"}
	case 4:
		return store.WatchOptions{Node: "n1"}
	case 5:
		return store.WatchOptions{OwnerKind: "ReplicationController"}
	case 6:
		return store.WatchOptions{Node: "n0", Label: "tier"}
	case 7:
		return store.WatchOptions{OwnerKind: core.KindSharePodSet}
	case 8:
		return store.WatchOptions{OwnerKind: core.KindSharePod}
	}
	return store.WatchOptions{}
}

// sees is the same filter written out by hand: the model's own statement of
// which objects a watcher is shown. A delete is judged by the labels, node and
// owner the object last had; only a pod is ever on a node.
func (w *watch) sees(obj api.Object) bool {
	meta := obj.GetMeta()
	_, tiered := meta.Labels["tier"]
	_, app := meta.Labels["app"]
	node := ""
	if pod, ok := obj.(*api.Pod); ok {
		node = pod.Spec.NodeName
	}
	switch {
	case obj.Kind() != w.kind:
		return false
	case w.shape == 1:
		return meta.Name == w.name
	case w.shape == 2:
		return tiered
	case w.shape == 3:
		return meta.Name == w.name && app
	case w.shape == 4:
		return node == "n1"
	case w.shape == 5:
		return strings.HasPrefix(meta.OwnerName, "ReplicationController/")
	case w.shape == 6:
		return node == "n0" && tiered
	case w.shape == 7:
		return strings.HasPrefix(meta.OwnerName, "SharePodSet/")
	case w.shape == 8:
		return strings.HasPrefix(meta.OwnerName, "SharePod/")
	}
	return true
}

// publish is what a committed write means to watchers: every live one whose
// filter passes is owed the event, and it joins the resumable history.
func (m *model) publish(typ store.EventType, obj api.Object) {
	ev := store.Event{Type: typ, Object: obj, Rev: m.rev}
	for _, w := range m.live {
		if w.sees(obj) {
			w.want = append(w.want, ev)
		}
	}
	m.events = append(m.events, ev)
	if over := len(m.events) - oracleHistoryCap; over > 0 {
		m.compact = m.events[over-1].Rev
		m.events = m.events[over:]
	}
}

func (m *model) write(statusOnly bool, obj api.Object) error {
	key := api.Key(obj)
	cur, ok := m.objs[key]
	if !ok {
		return store.ErrNotFound
	}
	if obj.GetMeta().ResourceVersion != cur.GetMeta().ResourceVersion {
		return store.ErrConflict
	}
	var next api.Object
	if _, carrier := cur.(api.StatusCarrier); !carrier {
		next = obj.DeepCopyObject()
	} else if statusOnly {
		next = withStatus(cur, obj)
	} else {
		next = withStatus(obj, cur)
	}
	m.rev++
	meta := next.GetMeta()
	meta.ResourceVersion, meta.UID, meta.CreationTime = m.rev, cur.GetMeta().UID, cur.GetMeta().CreationTime
	m.objs[key] = next
	m.log = append(m.log, record{rev: m.rev, key: key, obj: next})
	m.publish(store.Modified, next)
	return nil
}

func (m *model) create(obj api.Object, now time.Duration) error {
	key := api.Key(obj)
	if _, ok := m.objs[key]; ok {
		return store.ErrExists
	}
	next := obj.DeepCopyObject()
	m.rev++
	m.nextUID++
	meta := next.GetMeta()
	meta.ResourceVersion, meta.UID, meta.CreationTime = m.rev, fmt.Sprintf("uid-%d", m.nextUID), now
	m.objs[key] = next
	m.log = append(m.log, record{rev: m.rev, key: key, obj: next})
	m.publish(store.Added, next)
	return nil
}

func (m *model) delete(key string) error {
	cur, ok := m.objs[key]
	if !ok {
		return store.ErrNotFound
	}
	delete(m.objs, key)
	m.rev++
	m.log = append(m.log, record{rev: m.rev, key: key})
	m.publish(store.Deleted, cur)
	return nil
}

// tear is TearWALTail on the record list.
func (m *model) tear(n int) {
	if len(m.log) == 0 {
		return
	}
	if n <= 0 {
		last := &m.log[len(m.log)-1]
		last.flipped = !last.flipped
		return
	}
	for n > 0 && len(m.log) > 0 {
		last := &m.log[len(m.log)-1]
		if n < last.size {
			last.size -= n
			last.cut, last.flipped = true, false // the flipped byte went with the cut
			return
		}
		n -= last.size
		m.log = m.log[:len(m.log)-1]
	}
}

// crash rebuilds the state from the checkpoint and the records in front of
// the first damaged one, and reports what the store's RestoreStats must say.
func (m *model) crash() store.RestoreStats {
	st := store.RestoreStats{CheckpointRev: m.checkpoint.rev}
	m.state = m.checkpoint.clone()
	for _, r := range m.log {
		if r.cut || r.flipped {
			st.TornTail = true
			break
		}
		if r.obj == nil {
			delete(m.objs, r.key)
		} else {
			m.objs[r.key] = r.obj
			if uid, err := strconv.ParseInt(strings.TrimPrefix(r.obj.GetMeta().UID, "uid-"), 10, 64); err == nil {
				m.nextUID = max(m.nextUID, uid)
			}
		}
		m.rev = max(m.rev, r.rev)
		st.Replayed++
	}
	m.log = m.log[:st.Replayed]
	m.epoch++
	st.RestoredRev = m.rev
	// No registration and no history survives: whoever resumes from anywhere
	// but the restored revision relists.
	m.events, m.compact, m.live, m.dropped = nil, m.rev, nil, nil
	return st
}

// errClass reduces an error to the sentinel the store's contract names.
func errClass(err error) error {
	for _, class := range []error{store.ErrNotFound, store.ErrExists, store.ErrConflict, store.ErrGone} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// runHistory drives one history through a fresh store and a fresh model and
// returns the first disagreement. The driver is a simulation process so the
// virtual clock (creation times) moves between steps.
func runHistory(h []op) (failure error) {
	env := sim.NewEnv()
	env.Go("oracle", func(p *sim.Proc) { failure = drive(p, h) })
	env.Run()
	return failure
}

func drive(p *sim.Proc, h []op) error {
	env := p.Env()
	s := store.New(env)
	s.SetHistoryCap(oracleHistoryCap)
	s.EnableDurability(nil, nil)
	m := &model{state: state{objs: map[string]api.Object{}}, checkpoint: state{objs: map[string]api.Object{}}}

	// published holds, by ResourceVersion, the one object the store has
	// shown for it since the last crash — as a write's result or on a queue.
	published := map[int64]api.Object{}
	publishedOnce := func(step string, obj api.Object) error {
		rv := obj.GetMeta().ResourceVersion
		if prev, ok := published[rv]; ok && prev != obj {
			return fmt.Errorf("%s: a second object for %s at revision %d", step, api.Key(obj), rv)
		}
		published[rv] = obj
		return nil
	}
	// streams empties every live queue and holds it against the model.
	streams := func(step string) error {
		for _, w := range m.live {
			who := fmt.Sprintf("%s: watcher #%d (%s, shape %d, name %s)", step, w.id, w.kind, w.shape, w.name)
			if w.q.Closed() {
				return fmt.Errorf("%s: queue closed under a live watcher", who)
			}
			for i, want := range w.want {
				got, ok := w.q.TryGet()
				if !ok {
					return fmt.Errorf("%s: stream ends before event %d of %d: %s %s at revision %d", who, i, len(w.want), want.Type, api.Key(want.Object), want.Rev)
				}
				if got.Type != want.Type || got.Rev != want.Rev || !reflect.DeepEqual(got.Object, want.Object) {
					return fmt.Errorf("%s: event %d is %s %+v at revision %d, model says %s %+v at %d", who, i, got.Type, got.Object, got.Rev, want.Type, want.Object, want.Rev)
				}
				if err := publishedOnce(who, got.Object); err != nil {
					return err
				}
				w.last = max(w.last, got.Rev)
			}
			if extra, ok := w.q.TryGet(); ok {
				return fmt.Errorf("%s: %s %s at revision %d, which the model does not send", who, extra.Type, api.Key(extra.Object), extra.Rev)
			}
			w.want = nil
		}
		return nil
	}

	crash := func(step string) error {
		// A consumer is parked on every live (and drained) queue when the
		// store dies. Each must wake to a closed queue, and they wake in kind
		// name then registration order.
		doomed := append([]*watch(nil), m.live...)
		sort.SliceStable(doomed, func(i, j int) bool { return doomed[i].kind < doomed[j].kind })
		var wantClosed, closed []int
		for _, w := range doomed {
			wantClosed = append(wantClosed, w.id)
		}
		for _, w := range m.live {
			env.Go("consumer", func(c *sim.Proc) {
				if _, ok := w.q.Get(c); !ok {
					closed = append(closed, w.id)
				}
			})
		}
		p.Sleep(time.Microsecond) // they park

		preRev := s.Revision()
		want := m.crash()
		clear(published)
		got, err := s.Crash()
		if err != nil {
			return fmt.Errorf("%s: Crash: %v", step, err)
		}
		p.Sleep(time.Microsecond) // they wake
		if !reflect.DeepEqual(closed, wantClosed) {
			return fmt.Errorf("%s: watchers woke to a closed queue in order %v, model says %v", step, closed, wantClosed)
		}
		ckBytes, walBytes, walRecords := s.DurableSizes()
		want.CheckpointBytes = ckBytes // the one size the model cannot know
		for _, r := range m.log {
			want.WALBytes += r.size
		}
		want.ModeledOutageNS = int64(ckBytes+want.WALBytes)*store.DurableIONSPerByte + int64(want.Replayed)*store.ReplayNSPerRecord
		if got != want {
			return fmt.Errorf("%s: RestoreStats %+v, model says %+v", step, got, want)
		}
		if walRecords != int64(want.Replayed) || walBytes != want.WALBytes {
			return fmt.Errorf("%s: medium holds %d log records in %d bytes after a restore that kept %d in %d", step, walRecords, walBytes, want.Replayed, want.WALBytes)
		}
		if s.Revision() != m.rev || s.Epoch() != m.epoch {
			return fmt.Errorf("%s: revision %d epoch %d, model says %d and %d", step, s.Revision(), s.Epoch(), m.rev, m.epoch)
		}
		keys := sortedKeys(m.objs)
		var all []api.Object // every kind, in key order
		for _, kind := range sortedKinds {
			all = append(all, s.List(kind)...)
		}
		if len(all) != len(keys) {
			return fmt.Errorf("%s: store holds %d objects, model %d (%v)", step, len(all), len(keys), keys)
		}
		for i, obj := range all {
			if api.Key(obj) != keys[i] || !reflect.DeepEqual(obj, m.objs[keys[i]]) {
				return fmt.Errorf("%s: object %d is %s %+v, model says %s %+v", step, i, api.Key(obj), obj, keys[i], m.objs[keys[i]])
			}
		}
		// A consumer resuming from a revision it saw before the crash is
		// fenced unless that revision is exactly where the store came back.
		for _, from := range []int64{preRev, preRev - 1} {
			if from < 0 {
				continue
			}
			q, err := s.WatchFilteredFrom("Pod", store.WatchOptions{}, from)
			if gone := errors.Is(err, store.ErrGone); gone != (from != m.rev) {
				return fmt.Errorf("%s: resume from pre-crash revision %d (restored %d): err %v", step, from, m.rev, err)
			}
			if err == nil {
				s.StopWatch(q)
			}
		}
		return nil
	}

	for i, o := range h {
		p.Sleep(time.Millisecond)
		step := fmt.Sprintf("step %d (%s)", i, o)
		key := api.KeyOf(o.obj, o.name)
		_, before, _ := s.DurableSizes()
		logged := len(m.log)
		var got, want error
		var result api.Object // what a write returned
		switch o.kind {
		case opCreate:
			obj := build(o.obj, o.name, o.val, oracleNodes[o.node], oracleOwners[o.owner])
			result, got = s.Create(obj)
			want = m.create(obj, env.Now())
		case opUpdate, opUpdateStatus:
			obj := build(o.obj, o.name, o.val, oracleNodes[o.node], oracleOwners[o.owner])
			if cur, ok := m.objs[key]; ok {
				obj.GetMeta().ResourceVersion = cur.GetMeta().ResourceVersion
			}
			if o.stale {
				obj.GetMeta().ResourceVersion--
			}
			if o.kind == opUpdate {
				result, got = s.Update(obj)
			} else {
				result, got = s.UpdateStatus(obj)
			}
			want = m.write(o.kind == opUpdateStatus, obj)
		case opDelete:
			got, want = s.Delete(o.obj, o.name), m.delete(key)
		case opCheckpoint:
			s.Checkpoint()
			m.checkpoint, m.log = m.state.clone(), nil
		case opTear:
			s.TearWALTail(o.n)
			m.tear(o.n)
		case opCrash:
			if err := crash(step); err != nil {
				return err
			}
		case opWatch:
			w := &watch{id: i, kind: o.obj, shape: o.shape, name: o.name, last: m.rev}
			opts := w.options()
			opts.Replay = o.stale
			w.q = s.WatchFiltered(o.obj, opts)
			if o.stale { // replay: what passes the filter now, in name order
				for _, k := range sortedKeys(m.objs) {
					if obj := m.objs[k]; w.sees(obj) {
						w.want = append(w.want, store.Event{Type: store.Added, Object: obj, Rev: obj.GetMeta().ResourceVersion})
					}
				}
			}
			m.live = append(m.live, w)
		case opDrop:
			if len(m.live) == 0 {
				break
			}
			at := o.w % len(m.live)
			w := m.live[at]
			m.live = append(m.live[:at:at], m.live[at+1:]...)
			m.dropped = append(m.dropped, w)
			s.StopWatch(w.q)
			if !w.q.Closed() || w.q.Len() != 0 {
				return fmt.Errorf("%s: watcher #%d's queue is closed=%v holding %d events after StopWatch", step, w.id, w.q.Closed(), w.q.Len())
			}
		case opResume:
			if len(m.dropped) == 0 {
				break
			}
			at := o.w % len(m.dropped)
			w := m.dropped[at]
			m.dropped = append(m.dropped[:at:at], m.dropped[at+1:]...)
			// Its revision cannot be ahead of the store's (a crash forgets
			// every watcher), so it is gone exactly when compacted.
			q, err := s.WatchFilteredFrom(w.kind, w.options(), w.last)
			if gone := w.last < m.compact; errors.Is(err, store.ErrGone) != gone || (err != nil && !gone) {
				return fmt.Errorf("%s: watcher #%d resumes from %d, compacted through %d: err %v", step, w.id, w.last, m.compact, err)
			}
			if err != nil {
				break // a consumer would relist; the oracle lets it go
			}
			w.q = q
			for _, ev := range m.events {
				if ev.Rev > w.last && w.sees(ev.Object) {
					w.want = append(w.want, ev)
				}
			}
			m.live = append(m.live, w)
		}
		if errClass(got) != want {
			return fmt.Errorf("%s: store returned %v, model %v", step, got, want)
		}
		if result != nil {
			if err := publishedOnce(step, result); err != nil {
				return err
			}
		}
		if err := streams(step); err != nil {
			return err
		}
		if len(m.log) > logged {
			_, after, _ := s.DurableSizes()
			m.log[logged].size = after - before
		}
		if s.Revision() != m.rev {
			return fmt.Errorf("%s: revision %d, model says %d", step, s.Revision(), m.rev)
		}
	}
	// Whatever the history left on the medium must restore too — and the
	// next UID must be the model's: one more create shows it.
	if err := crash("final crash"); err != nil {
		return err
	}
	probe := build("Pod", "probe", 0, "", "")
	created, err := s.Create(probe)
	if err != nil {
		return fmt.Errorf("probe create after the final crash: %v", err)
	}
	m.create(probe, env.Now())
	if !reflect.DeepEqual(created, m.objs["Pod/probe"]) {
		return fmt.Errorf("first create after the final crash is %+v, model says %+v", created, m.objs["Pod/probe"])
	}
	return nil
}

func sortedKeys(objs map[string]api.Object) []string {
	keys := make([]string, 0, len(objs))
	for k := range objs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// shrink drops steps from a failing history while it keeps failing: whole
// chunks first, then single steps.
func shrink(h []op, fails func([]op) bool) []op {
	for chunk := len(h) / 2; chunk >= 1; chunk /= 2 {
		for at := 0; at+chunk <= len(h); {
			shorter := append(append([]op{}, h[:at]...), h[at+chunk:]...)
			if fails(shorter) {
				h = shorter
			} else {
				at += chunk
			}
		}
	}
	return h
}

func describe(h []op) string {
	var b strings.Builder
	for i, o := range h {
		fmt.Fprintf(&b, "\n  %2d  %s", i, o)
	}
	return b.String()
}

// TestDurabilityOracle: 300 seeded histories, 120 steps each.
func TestDurabilityOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		h := randomHistory(simrand.New(seed).Fork("durability-oracle"), 120)
		if err := runHistory(h); err != nil {
			small := shrink(h, func(h []op) bool { return runHistory(h) != nil })
			t.Fatalf("seed %d: %v\nshrunk to %d steps: %v%s", seed, err, len(small), runHistory(small), describe(small))
		}
	}
}

// TestDurabilityOracleShrinks pins the failure report: a history that fails
// for a planted reason shrinks to the few steps that matter. The history is
// the first from seed 7 on that holds the planted failure, so a change to
// the generator's draws moves the seed instead of skipping the test.
func TestDurabilityOracleShrinks(t *testing.T) {
	failing := func(h []op) bool { // "fails" when a Pod create is followed by a crash
		created := false
		for _, o := range h {
			created = created || (o.kind == opCreate && o.obj == "Pod")
			if created && o.kind == opCrash {
				return true
			}
		}
		return false
	}
	var h []op
	for seed := int64(7); !failing(h); seed++ {
		if seed > 107 {
			t.Fatal("no history from seeds 7–107 holds a Pod create before a crash")
		}
		h = randomHistory(simrand.New(seed).Fork("durability-oracle"), 80)
	}
	small := shrink(h, failing)
	if len(small) != 2 || small[0].kind != opCreate || small[1].kind != opCrash {
		t.Fatalf("shrunk to%s\nwant a create and a crash", describe(small))
	}
}
