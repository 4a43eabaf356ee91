package store

import (
	"errors"
	"testing"
	"testing/quick"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

func pod(name string) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec:       api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
	}
}

func TestCreateAssignsMetadata(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	stored, err := s.Create(pod("a"))
	if err != nil {
		t.Fatal(err)
	}
	m := stored.GetMeta()
	if m.UID == "" || m.ResourceVersion == 0 {
		t.Fatalf("meta not filled: %+v", m)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	if _, err := s.Create(pod("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(pod("a")); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

// edit is the read half of a read-modify-write under the ownership rule:
// Get's result is the shared snapshot, so the caller changes a private copy.
func edit(s *Store, kind, name string) (api.Object, error) {
	cur, err := s.Get(kind, name)
	if err != nil {
		return nil, err
	}
	return cur.DeepCopyObject(), nil
}

// Reads and write results are the published snapshot of their revision: the
// one object the watch event carries, not a copy of it.
func TestGetReturnsSnapshot(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	q := s.Watch("Pod", false)
	created, err := s.Create(pod("a"))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := q.TryGet()
	g1, _ := s.Get("Pod", "a")
	g2, _ := s.Get("Pod", "a")
	if g1 != ev.Object || g2 != ev.Object || created != ev.Object {
		t.Fatal("Get and Create must return the snapshot the watch event carries")
	}
	next := g1.DeepCopyObject().(*api.Pod)
	next.Status.Phase = api.PodRunning
	updated, err := s.UpdateStatus(next)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ = q.TryGet()
	g3, _ := s.Get("Pod", "a")
	if g3 != ev.Object || updated != ev.Object || g3 == g1 || g3 == api.Object(next) {
		t.Fatal("after a write, Get and the write's result must be the new revision's snapshot")
	}
	if g1.(*api.Pod).Status.Phase == api.PodRunning {
		t.Fatal("a later write touched the earlier snapshot")
	}
	// A spec write copies its argument on the way in and keeps the status.
	spec := g3.DeepCopyObject().(*api.Pod)
	spec.Labels = map[string]string{"app": "x"}
	spec.Status.Phase = api.PodFailed // ignored by Update
	stored, err := s.Update(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Labels["app"] = "mutated"
	if p := stored.(*api.Pod); p.Labels["app"] != "x" || p.Status.Phase != api.PodRunning {
		t.Fatalf("spec write published %+v", p)
	}
}

func TestUpdateConflictOnStaleVersion(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	stored, _ := s.Create(pod("a"))
	fresh := stored.DeepCopyObject().(*api.Pod)
	stale := stored.DeepCopyObject().(*api.Pod)
	fresh.Status.Phase = api.PodRunning
	if _, err := s.Update(fresh); err != nil {
		t.Fatal(err)
	}
	stale.Status.Phase = api.PodFailed
	if _, err := s.Update(stale); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale update err = %v, want conflict", err)
	}
}

func TestUpdatePreservesUIDAndCreationTime(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	stored, _ := s.Create(pod("a"))
	orig := stored.GetMeta()
	upd := stored.DeepCopyObject().(*api.Pod)
	upd.UID = "spoofed"
	out, err := s.Update(upd)
	if err != nil {
		t.Fatal(err)
	}
	if out.GetMeta().UID != orig.UID {
		t.Fatal("UID not preserved across update")
	}
}

func TestDeleteAndNotFound(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.Create(pod("a"))
	if err := s.Delete("Pod", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("Pod", "a"); err == nil {
		t.Fatal("deleted object still readable")
	}
	if err := s.Delete("Pod", "a"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestListSortedAndPrefixed(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.Create(pod("b"))
	s.Create(pod("a"))
	s.Create(&api.Node{ObjectMeta: api.ObjectMeta{Name: "n1"}})
	pods := s.List("Pod")
	if len(pods) != 2 || pods[0].GetMeta().Name != "a" || pods[1].GetMeta().Name != "b" {
		t.Fatalf("list = %v", pods)
	}
}

func TestWatchReplayAndLiveEvents(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.Create(pod("pre"))
	q := s.Watch("Pod", true)
	var events []Event
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			ev, ok := q.Get(p)
			if !ok {
				return
			}
			events = append(events, ev)
		}
	})
	env.Go("mutator", func(p *sim.Proc) {
		p.Sleep(1)
		s.Create(pod("live"))
		stored, _ := edit(s, "Pod", "live")
		stored.(*api.Pod).Status.Phase = api.PodRunning
		s.Update(stored)
		s.Delete("Pod", "live")
	})
	env.Run()
	want := []EventType{Added, Added, Modified, Deleted}
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	for i, w := range want {
		if events[i].Type != w {
			t.Fatalf("event %d = %s, want %s", i, events[i].Type, w)
		}
	}
	if events[0].Object.GetMeta().Name != "pre" {
		t.Fatal("replay missing pre-existing object")
	}
}

func TestWatchPrefixFiltering(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	q := s.Watch("Node", false)
	var got []Event
	env.Go("w", func(p *sim.Proc) {
		for {
			ev, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, ev)
		}
	})
	env.Go("m", func(p *sim.Proc) {
		s.Create(pod("a"))
		s.Create(&api.Node{ObjectMeta: api.ObjectMeta{Name: "n1"}})
		s.StopWatch(q)
	})
	env.Run()
	if len(got) != 1 || got[0].Object.Kind() != "Node" {
		t.Fatalf("got = %v", got)
	}
}

func TestStopWatchClosesQueue(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	q := s.Watch("Pod", false)
	var closed bool
	env.Go("w", func(p *sim.Proc) {
		_, ok := q.Get(p)
		closed = !ok
	})
	env.Go("m", func(p *sim.Proc) { s.StopWatch(q) })
	env.Run()
	if !closed {
		t.Fatal("watch queue not closed")
	}
	s.Create(pod("a")) // must not panic (watcher removed)
}

// Property: resource versions strictly increase over any mutation sequence.
func TestPropertyResourceVersionMonotonic(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv()
		s := New(env)
		last := int64(0)
		names := []string{"a", "b", "c"}
		for _, op := range ops {
			name := names[int(op)%len(names)]
			switch (op / 3) % 3 {
			case 0:
				if stored, err := s.Create(pod(name)); err == nil {
					if v := stored.GetMeta().ResourceVersion; v <= last {
						return false
					} else {
						last = v
					}
				}
			case 1:
				if cur, err := s.Get("Pod", name); err == nil {
					if stored, err := s.Update(cur); err == nil {
						if v := stored.GetMeta().ResourceVersion; v <= last {
							return false
						} else {
							last = v
						}
					}
				}
			case 2:
				s.Delete("Pod", name)
			}
			if s.Revision() < last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
