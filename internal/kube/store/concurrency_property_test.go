package store

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

// expectedEv is one entry of a worker's per-key op log: the event a
// single-lock store would deliver for the mutation. objRV is the delivered
// object's ResourceVersion (for Deleted, the pre-delete version).
type expectedEv struct {
	typ      EventType
	objRV    int64
	selMatch bool // labels carried the watched key at delivery time
}

// TestConcurrentChurnWatchEquivalence is the store's concurrency property
// test: several goroutines churn disjoint key ranges across two kinds while
// filtered watches are live, under -race. Because each key has exactly one
// writer, the per-key event sequence a single-lock store would deliver is
// fully determined by that writer's op log — so every watcher (per-kind and
// label-filtered) and the OnPublish observer must see exactly that
// sequence per key, with store-wide revisions strictly increasing along it,
// however the writers interleave. A list+watch registered from a goroutine
// while the churn runs must join every key's sequence at one consistent cut:
// no gap, no duplicate.
func TestConcurrentChurnWatchEquivalence(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)

	const (
		workers    = 8
		keysPer    = 12
		opsPer     = 400
		watchedKey = "app"
	)
	carries := func(lbls map[string]string) bool { _, ok := lbls[watchedKey]; return ok }

	// Live watches registered before the churn: per-kind and
	// label-filtered (Pods carrying app), plus the publish hook, which sees
	// both kinds (it runs inside the write, so it needs no lock of its own).
	podQ := s.Watch("Pod", false)
	nodeQ := s.Watch("Node", false)
	selQ := s.WatchFiltered("Pod", WatchOptions{Label: watchedKey})
	allEvs := map[string][]Event{}
	s.OnPublish(func(ev Event) {
		key := api.Key(ev.Object)
		allEvs[key] = append(allEvs[key], ev)
	})

	// The late watcher registers with replay while workers 1..7 are writing:
	// worker 0 signals mid a quarter of the way through its ops and resumes
	// once the registration is in, so there are writes on both sides of it.
	var lateQ *sim.Queue[Event]
	mid, registered := make(chan struct{}), make(chan struct{})
	go func() {
		<-mid
		lateQ = s.Watch("Pod", true)
		close(registered)
	}()

	logs := make([]map[string][]expectedEv, workers) // worker → key → op log
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		logs[w] = make(map[string][]expectedEv)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			kind := "Pod"
			if w%2 == 1 {
				kind = "Node"
			}
			make_ := func(name string, lbls map[string]string) api.Object {
				if kind == "Pod" {
					p := pod(name)
					p.Labels = lbls
					return p
				}
				return &api.Node{ObjectMeta: api.ObjectMeta{Name: name, Labels: lbls}}
			}
			randLabels := func() map[string]string {
				out := map[string]string{}
				if rng.Intn(2) == 0 {
					out["app"] = []string{"a", "b"}[rng.Intn(2)]
				}
				if rng.Intn(2) == 0 {
					out["tier"] = []string{"x", "y"}[rng.Intn(2)]
				}
				return out
			}
			curLabels := map[string]map[string]string{} // key → last stored labels
			for i := 0; i < opsPer; i++ {
				if w == 0 && i == opsPer/4 {
					close(mid)
					<-registered
				}
				name := fmt.Sprintf("w%d-%02d", w, rng.Intn(keysPer))
				key := kind + "/" + name
				_, exists := curLabels[name]
				switch op := rng.Intn(5); {
				case op == 0 && !exists: // create
					lbls := randLabels()
					stored, err := s.Create(make_(name, lbls))
					if err != nil {
						t.Errorf("create %s: %v", key, err)
						return
					}
					curLabels[name] = lbls
					logs[w][key] = append(logs[w][key], expectedEv{
						Added, stored.GetMeta().ResourceVersion, carries(lbls)})
				case (op == 1 || op == 2) && exists: // label update
					cur, err := edit(s, kind, name)
					if err != nil {
						t.Errorf("get %s: %v", key, err)
						return
					}
					lbls := randLabels()
					cur.GetMeta().Labels = lbls
					stored, err := s.Update(cur)
					if err != nil {
						t.Errorf("update %s: %v", key, err)
						return
					}
					curLabels[name] = lbls
					logs[w][key] = append(logs[w][key], expectedEv{
						Modified, stored.GetMeta().ResourceVersion, carries(lbls)})
				case op == 3 && exists: // status update (labels preserved)
					cur, err := edit(s, kind, name)
					if err != nil {
						t.Errorf("get %s: %v", key, err)
						return
					}
					if p, ok := cur.(*api.Pod); ok {
						p.Status.Phase = api.PodRunning
					} else {
						cur.(*api.Node).Status.Ready = true
					}
					stored, err := s.UpdateStatus(cur)
					if err != nil {
						t.Errorf("update status %s: %v", key, err)
						return
					}
					logs[w][key] = append(logs[w][key], expectedEv{
						Modified, stored.GetMeta().ResourceVersion,
						carries(curLabels[name])})
				case op == 4 && exists: // delete
					prior := logs[w][key][len(logs[w][key])-1]
					if err := s.Delete(kind, name); err != nil {
						t.Errorf("delete %s: %v", key, err)
						return
					}
					logs[w][key] = append(logs[w][key], expectedEv{
						Deleted, prior.objRV, carries(curLabels[name])})
					delete(curLabels, name)
				}
			}
		}(w)
	}
	wg.Wait()

	// Merge the per-worker logs into per-key expected sequences.
	want := map[string][]expectedEv{}
	totalOps := 0
	for _, wl := range logs {
		for key, seq := range wl {
			want[key] = seq // keys are worker-disjoint, no merge needed
			totalOps += len(seq)
		}
	}
	if got := s.Revision(); got != int64(totalOps) {
		t.Fatalf("revision %d after %d mutations", got, totalOps)
	}

	drain := func(q *sim.Queue[Event]) map[string][]Event {
		out := map[string][]Event{}
		for {
			ev, ok := q.TryGet()
			if !ok {
				return out
			}
			key := api.Key(ev.Object)
			out[key] = append(out[key], ev)
		}
	}
	checkSeq := func(label, key string, got []Event, want []expectedEv) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s watch, key %s: %d events, want %d", label, key, len(got), len(want))
		}
		lastRev := int64(0)
		for i, ev := range got {
			if ev.Type != want[i].typ || ev.Object.GetMeta().ResourceVersion != want[i].objRV {
				t.Fatalf("%s watch, key %s, event %d: got (%s, rv=%d), want (%s, rv=%d)",
					label, key, i, ev.Type, ev.Object.GetMeta().ResourceVersion,
					want[i].typ, want[i].objRV)
			}
			if ev.Rev <= lastRev {
				t.Fatalf("%s watch, key %s, event %d: rev %d not increasing past %d",
					label, key, i, ev.Rev, lastRev)
			}
			lastRev = ev.Rev
		}
	}

	// Per-kind watches: every key's sequence equals the single-writer log.
	podEvs, nodeEvs := drain(podQ), drain(nodeQ)
	for key, seq := range want {
		var got []Event
		if key[:3] == "Pod" {
			got = podEvs[key]
		} else {
			got = nodeEvs[key]
		}
		checkSeq("kind", key, got, seq)
		checkSeq("published", key, allEvs[key], seq)
	}
	// And nothing beyond the expected keys was delivered.
	if got, wantN := len(podEvs)+len(nodeEvs), len(want); got != wantN {
		t.Fatalf("kind watches saw %d keys, want %d", got, wantN)
	}

	// Late Pod list+watch. Per key it must hold a suffix of the eager Pod
	// watcher's sequence — same Events, same snapshot pointers —
	// entered either live, right after a delete (the key was absent at
	// registration), or at a replayed Added carrying the snapshot current at
	// registration. And the registration is one cut: a single revision R must
	// fit every key, with everything after R delivered live and nothing at or
	// before R delivered twice.
	lateEvs := drain(lateQ)
	lo, hi := int64(0), s.Revision()+1 // lo <= R < hi
	lateTotal, podTotal := 0, 0
	for key, full := range podEvs {
		got := lateEvs[key]
		lateTotal += len(got)
		podTotal += len(full)
		j := len(full) - len(got)
		if j < 0 {
			t.Fatalf("late watch, key %s: %d events, eager watcher saw only %d", key, len(got), len(full))
		}
		for i := 1; i < len(got); i++ {
			if got[i] != full[j+i] {
				t.Fatalf("late watch, key %s, event %d: got (%s, rev=%d), eager watcher (%s, rev=%d)",
					key, i, got[i].Type, got[i].Rev, full[j+i].Type, full[j+i].Rev)
			}
		}
		// R >= full[first-1].Rev and R < full[next].Rev.
		first, next := j, j
		switch {
		case len(got) > 0 && got[0] == full[j] && full[j].Type == Added:
			// A replayed create and a live one are the same Event, so R may
			// sit on either side of it.
			next = j + 1
		case len(got) == 0 || got[0] == full[j]:
			if full[j-1].Type != Deleted {
				t.Fatalf("late watch, key %s: joined at event %d though the object existed and was not replayed", key, j)
			}
		case got[0] == Event{Added, full[j].Object, full[j].Rev} && full[j].Type == Modified:
			first, next = j+1, j+1
		default:
			t.Fatalf("late watch, key %s: first event (%s, rev=%d) is neither eager event %d (%s, rev=%d) nor its replay",
				key, got[0].Type, got[0].Rev, j, full[j].Type, full[j].Rev)
		}
		if first > 0 {
			lo = max(lo, full[first-1].Rev)
		}
		if next < len(full) {
			hi = min(hi, full[next].Rev)
		}
	}
	if lo >= hi {
		t.Fatalf("late watch: no single registration revision fits every key (need %d <= R < %d)", lo, hi)
	}
	if lateTotal == 0 || lateTotal >= podTotal || len(lateEvs) > len(podEvs) {
		t.Fatalf("late watch saw %d events over %d keys (eager: %d over %d): not a mid-churn suffix",
			lateTotal, len(lateEvs), podTotal, len(podEvs))
	}

	// Label watch: exactly the matching subsequence of each Pod key.
	selEvs := drain(selQ)
	for key, seq := range want {
		if key[:3] != "Pod" {
			continue
		}
		var filtered []expectedEv
		for _, e := range seq {
			if e.selMatch {
				filtered = append(filtered, e)
			}
		}
		checkSeq("label", key, selEvs[key], filtered)
	}

	// Folding the per-kind streams reproduces the final store state.
	for _, kind := range []string{"Pod", "Node"} {
		evs := podEvs
		if kind == "Node" {
			evs = nodeEvs
		}
		view := map[string]int64{}
		for key, seq := range evs {
			last := seq[len(seq)-1]
			if last.Type != Deleted {
				view[key] = last.Object.GetMeta().ResourceVersion
			}
		}
		final := s.List(kind)
		if len(final) != len(view) {
			t.Fatalf("%s: folded view has %d objects, list %d", kind, len(view), len(final))
		}
		var names []string
		for _, obj := range final {
			key := api.Key(obj)
			if view[key] != obj.GetMeta().ResourceVersion {
				t.Fatalf("%s: folded %s at rv=%d, stored %d",
					kind, key, view[key], obj.GetMeta().ResourceVersion)
			}
			names = append(names, obj.GetMeta().Name)
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("%s list unsorted under concurrent churn: %v", kind, names)
		}
	}
}

// TestConcurrentReaders checks readers on one kind run against writers on
// another without torn results: count/list/scan answers on the read side
// always reflect a committed prefix of the writer's op sequence.
func TestConcurrentReaders(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	for i := 0; i < 64; i++ {
		p := pod(fmt.Sprintf("stable-%02d", i))
		p.Labels = map[string]string{"app": "a"}
		if _, err := s.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer churns Nodes (another kind)
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("n-%02d", i%32)
			n := &api.Node{ObjectMeta: api.ObjectMeta{Name: name}}
			if _, err := s.Create(n); err != nil {
				s.Delete("Node", name)
			}
		}
	}()
	for r := 0; r < 2000; r++ {
		if got := s.Count("Pod"); got != 64 {
			t.Fatalf("count=%d, want 64", got)
		}
		if got := len(s.List("Pod")); got != 64 {
			t.Fatalf("list has %d, want 64", got)
		}
		seen := 0
		s.Scan("Pod", func(api.Object) bool { seen++; return true })
		if seen != 64 {
			t.Fatalf("scan visited %d, want 64", seen)
		}
	}
	close(stop)
	wg.Wait()
}
