package store_test

import (
	"reflect"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// next pops the one event a queue must hold.
func next(t *testing.T, what string, q *sim.Queue[store.Event]) store.Event {
	t.Helper()
	ev, ok := q.TryGet()
	if !ok {
		t.Fatalf("%s: no event", what)
	}
	if q.Len() != 0 {
		t.Fatalf("%s: %d extra events", what, q.Len())
	}
	return ev
}

// TestWatchSharesOneSnapshot pins the ownership rule: every path that hands
// out a revision — watches, replays (kind-wide and label-filtered), resumes,
// the publish hook, Scan, Get, List, the write's own return value, the
// reflector — hands out
// the same pointer;
// a later write publishes a different object and leaves the earlier one
// alone; and the store aliases nothing that came in.
func TestWatchSharesOneSnapshot(t *testing.T) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	st := srv.Store()
	kindA := st.Watch("Pod", false)
	kindB := st.WatchFiltered("Pod", store.WatchOptions{Name: "a"})
	var hooked api.Object // what OnPublish was last shown
	st.OnPublish(func(ev store.Event) { hooked = ev.Object })
	// The reflector's handler reacts (react, below) once the snapshots it
	// writes against exist; nothing runs until env.Run.
	var viaReflector []store.Event
	var react func()
	refl := srv.Inform("test", "consumer", "Pod", store.WatchOptions{}, func(_ *sim.Proc, ev store.Event) {
		viaReflector = append(viaReflector, ev)
		react()
	})
	rev0 := st.Revision()

	arg := &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: "a", Labels: map[string]string{"app": "x"}},
		Spec:       api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
	}
	created, err := st.Create(arg)
	if err != nil {
		t.Fatal(err)
	}
	first := next(t, "kind watcher", kindA)
	snap1 := first.Object
	if first.Type != store.Added || first.Rev != snap1.GetMeta().ResourceVersion {
		t.Fatalf("first event = %+v", first)
	}
	same := func(what string, snap api.Object, got api.Object) {
		t.Helper()
		if got != snap {
			t.Errorf("%s delivered a different object than the first watcher", what)
		}
	}
	same("name-filtered kind watcher", snap1, next(t, "name-filtered", kindB).Object)
	same("the publish hook", snap1, hooked)
	resumed, err := st.WatchFilteredFrom("Pod", store.WatchOptions{}, rev0)
	if err != nil {
		t.Fatal(err)
	}
	same("history resume", snap1, next(t, "resume", resumed).Object)
	same("kind replay", snap1, next(t, "replay", st.Watch("Pod", true)).Object)
	labelReplay := st.WatchFiltered("Pod", store.WatchOptions{Label: "app", Replay: true})
	same("label replay", snap1, next(t, "label replay", labelReplay).Object)
	st.Scan("Pod", func(o api.Object) bool { same("Scan", snap1, o); return true })

	// Reads and the write's own result are that same snapshot; only the
	// caller's argument stays the caller's.
	same("Create's return value", snap1, created)
	got, err := st.Get("Pod", "a")
	if err != nil {
		t.Fatal(err)
	}
	same("Get", snap1, got)
	same("List", snap1, st.List("Pod")[0])
	if snap1 == api.Object(arg) {
		t.Fatal("Create published the caller's argument")
	}
	want1 := snap1.DeepCopyObject()
	arg.Labels["app"] = "mutated" // the store copied on the way in
	arg.Spec.Containers[0].Image = "mutated"
	if !reflect.DeepEqual(snap1, want1) {
		t.Fatalf("the published snapshot aliases Create's argument: %+v", snap1)
	}

	// A status write publishes a different object that shares the stored
	// spec and metadata — whatever the caller's argument says about them —
	// and leaves the earlier snapshot at its revision and its status.
	upd := want1.DeepCopyObject().(*api.Pod)
	upd.Status.Phase = api.PodRunning
	upd.Labels = map[string]string{"app": "scribbled"}
	upd.Spec.NodeName = "scribbled"
	returned, err := st.UpdateStatus(upd)
	if err != nil {
		t.Fatal(err)
	}
	snap2 := next(t, "kind watcher, rev 2", kindA).Object
	if snap2 == snap1 || snap2 == api.Object(upd) {
		t.Fatal("UpdateStatus did not publish a fresh object")
	}
	same("UpdateStatus's return value", snap2, returned)
	got, _ = st.Get("Pod", "a")
	same("Get, rev 2", snap2, got)
	p1, p2 := snap1.(*api.Pod), snap2.(*api.Pod)
	if p2.Status.Phase != api.PodRunning || p2.ResourceVersion <= p1.ResourceVersion {
		t.Fatalf("second snapshot = %+v", snap2)
	}
	if p2.Spec.NodeName != "" || reflect.ValueOf(p2.Labels).Pointer() != reflect.ValueOf(p1.Labels).Pointer() ||
		&p2.Spec.Containers[0] != &p1.Spec.Containers[0] {
		t.Fatalf("a status write must share the stored spec and metadata, got %+v", snap2)
	}
	same("name-filtered kind watcher, rev 2", snap2, next(t, "name-filtered", kindB).Object)
	same("the publish hook, rev 2", snap2, hooked)
	same("history resume, rev 2", snap2, next(t, "resume", resumed).Object)
	if !reflect.DeepEqual(snap1, want1) {
		t.Fatalf("a later write touched the earlier snapshot: %+v", snap1)
	}
	upd.Status.Phase = api.PodFailed // the caller's argument is not aliased
	if p2.Status.Phase != api.PodRunning {
		t.Fatal("the published snapshot aliases the caller's argument")
	}

	// The reflector: live events, a relist after a compacted gap, and the
	// Deleted it synthesizes for a vanished object all carry the shared
	// snapshots.
	react = func() {
		switch len(viaReflector) {
		case 2:
			// Sever the stream, write into the gap with history off:
			// the next read cannot resume and relists.
			refl.Drop()
			srv.SetWatchHistoryCap(0)
			again := snap2.DeepCopyObject().(*api.Pod)
			again.Status.Phase = api.PodSucceeded
			if _, err := st.UpdateStatus(again); err != nil {
				t.Error(err)
			}
		case 3:
			refl.Drop()
			if err := st.Delete("Pod", "a"); err != nil {
				t.Error(err)
			}
		}
	}
	env.Run()
	if len(viaReflector) != 4 {
		t.Fatalf("reflector delivered %d events, want 4", len(viaReflector))
	}
	if _, relists, _ := refl.Stats(); relists != 2 {
		t.Fatalf("relists = %d, want 2", relists)
	}
	third, _ := kindA.TryGet()
	snap3 := third.Object
	if third.Type != store.Modified || snap3 == snap2 {
		t.Fatalf("third event = %+v", third)
	}
	// Delete publishes no new object: it delivers the last snapshot.
	same("the store's Deleted event", snap3, next(t, "kind watcher, delete", kindA).Object)
	same("reflector, live rev 1", snap1, viaReflector[0].Object)
	same("reflector, live rev 2", snap2, viaReflector[1].Object)
	same("reflector relist", snap3, viaReflector[2].Object)
	if viaReflector[3].Type != store.Deleted {
		t.Fatalf("last reflector event = %+v", viaReflector[3])
	}
	same("reflector's synthesized Deleted", snap3, viaReflector[3].Object)
}

// TestKindIsNotAKeyPrefix: lists and watches take a kind, and one kind's name
// opening another's (SharePod, SharePodSet) shows neither the other's objects.
func TestKindIsNotAKeyPrefix(t *testing.T) {
	st := store.New(sim.NewEnv())
	q := st.Watch(core.KindSharePod, true)
	if _, err := st.Create(&core.SharePod{ObjectMeta: api.ObjectMeta{Name: "sp"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(&core.SharePodSet{ObjectMeta: api.ObjectMeta{Name: "set"}}); err != nil {
		t.Fatal(err)
	}
	if got := st.List(core.KindSharePod); len(got) != 1 || got[0].Kind() != core.KindSharePod {
		t.Fatalf("List(SharePod) = %v, want the one sharePod", got)
	}
	if ev := next(t, "SharePod watcher", q); ev.Object.Kind() != core.KindSharePod {
		t.Fatalf("SharePod watcher was shown %s", api.Key(ev.Object))
	}
	if got := st.Watch(core.KindSharePod, true); got.Len() != 1 {
		t.Fatalf("SharePod replay holds %d events, want 1", got.Len())
	}
}
