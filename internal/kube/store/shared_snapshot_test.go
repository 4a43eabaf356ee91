package store

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
)

// TestSharedSnapshotConcurrentReaders runs goroutine readers — Scan, Get,
// List, ListSelector — against a writer that is publishing shared snapshots
// to live watchers, under -race (check.sh runs it at GOMAXPROCS=4). Readers
// keep the snapshots every read showed them past the store's lock and read
// every field again later: a published object must never change — not even
// when a status write shares its spec and metadata with the next revision —
// so each must still equal the private copy taken at first sight, and the
// race detector must see no write to memory a reader holds.
func TestSharedSnapshotConcurrentReaders(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	const (
		names   = 16
		ops     = 1500
		readers = 4
	)
	sel := labels.SelectorFromMap(map[string]string{"app": "a"})
	kindQ := s.Watch("Pod", false)
	selQ := s.WatchFiltered("Pod", WatchOptions{Selector: sel})
	var published []Event
	s.OnPublish(func(ev Event) { published = append(published, ev) })

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			type kept struct{ shared, private api.Object }
			held := map[api.Object]kept{}
			keep := func(o api.Object) bool {
				if _, ok := held[o]; !ok && len(held) < 256 {
					held[o] = kept{o, o.DeepCopyObject()}
				}
				return true
			}
			for !done.Load() {
				s.ScanSelector("Pod", []labels.Selector{nil, sel}[r%2], keep)
				if got, err := s.Get("Pod", fmt.Sprintf("p%02d", r)); err == nil {
					keep(got)
				}
				for _, o := range s.List("Pod") {
					keep(o)
				}
				for _, o := range s.ListSelector("Pod", sel) {
					keep(o)
				}
				for _, k := range held {
					if !reflect.DeepEqual(k.shared, k.private) {
						t.Errorf("reader %d: snapshot %s rev %d changed after publication",
							r, api.Key(k.private), k.private.GetMeta().ResourceVersion)
						return
					}
				}
			}
		}(r)
	}

	writes := 0
	for i := 0; i < ops; i++ {
		name := fmt.Sprintf("p%02d", i%names)
		cur, err := edit(s, "Pod", name)
		switch {
		case err != nil:
			p := pod(name)
			p.Labels = map[string]string{"app": []string{"a", "b"}[i%2]}
			_, err = s.Create(p)
		case i%7 == 0:
			err = s.Delete("Pod", name)
		case i%3 == 0:
			cur.GetMeta().Labels["app"] = []string{"a", "b"}[(i/3)%2]
			_, err = s.Update(cur)
		default:
			cur.(*api.Pod).Status.Phase = []api.PodPhase{api.PodPending, api.PodRunning}[i%2]
			cur.(*api.Pod).Status.Message = fmt.Sprint(i)
			_, err = s.UpdateStatus(cur)
		}
		if err != nil {
			t.Fatalf("op %d on %s: %v", i, name, err)
		}
		writes++
	}
	done.Store(true)
	wg.Wait()

	// Every watcher saw every write as the same object.
	if kindQ.Len() != writes || len(published) != writes {
		t.Fatalf("kind watcher got %d, the publish hook %d, want %d", kindQ.Len(), len(published), writes)
	}
	bySel := map[int64]api.Object{}
	for selQ.Len() > 0 {
		ev, _ := selQ.TryGet()
		bySel[ev.Rev] = ev.Object
	}
	for _, b := range published {
		a, _ := kindQ.TryGet()
		if a != b {
			t.Fatalf("rev %d: the kind watcher got a different object than was published", a.Rev)
		}
		if o, ok := bySel[a.Rev]; ok && o != a.Object {
			t.Fatalf("rev %d: selector watcher got a different object", a.Rev)
		}
		if a.Type != Deleted && a.Object.GetMeta().ResourceVersion != a.Rev {
			t.Fatalf("rev %d carries an object at version %d", a.Rev, a.Object.GetMeta().ResourceVersion)
		}
	}
}
