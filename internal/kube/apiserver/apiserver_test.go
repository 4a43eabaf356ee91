package apiserver

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

func newServer() (*sim.Env, *Server) {
	env := sim.NewEnv()
	return env, New(env)
}

func mkPod(name string) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec:       api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
	}
}

func TestTypedClientRoundTrip(t *testing.T) {
	_, s := newServer()
	pods := Pods(s)
	created, err := pods.Create(mkPod("a"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := pods.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != created.UID {
		t.Fatal("typed get mismatch")
	}
	if err := pods.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := pods.Get("a"); !IsNotFound(err) {
		t.Fatalf("err = %v, want not found", err)
	}
}

func TestEmptyNameRejected(t *testing.T) {
	_, s := newServer()
	if _, err := Pods(s).Create(mkPod("")); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestValidatorRunsOnCreateAndUpdate also holds Create's error contract:
// Create publishes the object it is handed, but a create that is refused — by
// a validator or with ErrExists — leaves the caller's object untouched.
func TestValidatorRunsOnCreateAndUpdate(t *testing.T) {
	_, s := newServer()
	boom := errors.New("rejected")
	s.RegisterValidator("Pod", func(o api.Object) error {
		if o.(*api.Pod).Spec.NodeName == "bad" {
			return boom
		}
		return nil
	})
	pods := Pods(s)
	untouched := func(what string, p *api.Pod, nodeName string) {
		t.Helper()
		want := mkPod("a")
		want.Spec.NodeName = nodeName
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("%s create changed the caller's object: %+v", what, p)
		}
	}
	bad := mkPod("a")
	bad.Spec.NodeName = "bad"
	if _, err := pods.Create(bad); !errors.Is(err, boom) {
		t.Fatalf("create err = %v", err)
	}
	untouched("rejected", bad, "bad")
	created, err := pods.Create(mkPod("a"))
	if err != nil {
		t.Fatal(err)
	}
	dup := mkPod("a")
	if _, err := pods.Create(dup); !IsExists(err) {
		t.Fatalf("duplicate create err = %v", err)
	}
	untouched("duplicate", dup, "")
	if got, _ := pods.Get("a"); got != created {
		t.Fatalf("duplicate create replaced the stored object: %+v", got)
	}
	if _, err := pods.Mutate("a", func(p *api.Pod) error {
		p.Spec.NodeName = "bad"
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("update err = %v", err)
	}
	if got, _ := pods.Get("a"); got.Spec.NodeName != "" || got.ResourceVersion != 1 {
		t.Fatalf("rejected write stored: %+v", got)
	}
}

func TestValidatorScopedToKind(t *testing.T) {
	_, s := newServer()
	s.RegisterValidator("Node", func(api.Object) error { return errors.New("no nodes") })
	if _, err := Pods(s).Create(mkPod("a")); err != nil {
		t.Fatalf("pod affected by node validator: %v", err)
	}
}

func TestMutateRetriesToSuccess(t *testing.T) {
	_, s := newServer()
	pods := Pods(s)
	pods.Create(mkPod("a"))
	out, err := pods.Mutate("a", func(p *api.Pod) error {
		p.Spec.NodeName = "n1"
		return nil
	})
	if err != nil || out.Spec.NodeName != "n1" {
		t.Fatalf("out=%+v err=%v", out.Spec, err)
	}
}

func TestMutateStatusWritesStatus(t *testing.T) {
	_, s := newServer()
	pods := Pods(s)
	pods.Create(mkPod("a"))
	out, err := pods.MutateStatus("a", func(p *api.Pod) error {
		p.Status.Phase = api.PodRunning
		return nil
	})
	if err != nil || out.Status.Phase != api.PodRunning {
		t.Fatalf("out=%+v err=%v", out.Status, err)
	}
}

func TestWatchFilteredByNameDoesNotWakeOnOthers(t *testing.T) {
	env, s := newServer()
	pods := Pods(s)
	pods.Create(mkPod("target"))
	q := s.WatchFiltered("Pod", WatchOptions{Name: "target", Replay: true})
	env.Go("churn", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			pods.Create(mkPod(fmt.Sprintf("noise-%d", i)))
		}
		pods.MutateStatus("target", func(pod *api.Pod) error {
			pod.Status.Phase = api.PodRunning
			return nil
		})
	})
	env.Run()
	// Replay of target + its one status update; none of the 20 noise events.
	var evs []store.Event
	for {
		ev, ok := q.TryGet()
		if !ok {
			break
		}
		evs = append(evs, ev)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (replay + update)", len(evs))
	}
	for _, ev := range evs {
		if ev.Object.GetMeta().Name != "target" {
			t.Fatalf("woke on %s", ev.Object.GetMeta().Name)
		}
	}
}

// TestWatchFilteredByLabel: a Label watch delivers the objects carrying the
// key, whatever its value (the empty one included), and nothing else.
func TestWatchFilteredByLabel(t *testing.T) {
	env, s := newServer()
	pods := Pods(s)
	q := s.WatchFiltered("Pod", WatchOptions{Label: "managed", Replay: false})
	env.Go("churn", func(p *sim.Proc) {
		for name, lbls := range map[string]map[string]string{
			"plain": nil, "tagged": {"managed": "yes"}, "other": {"other": "yes"}, "empty": {"managed": ""},
		} {
			pod := mkPod(name)
			pod.Labels = lbls
			pods.Create(pod)
		}
	})
	env.Run()
	var got []string
	for ev, ok := q.TryGet(); ok; ev, ok = q.TryGet() {
		got = append(got, ev.Object.GetMeta().Name)
	}
	slices.Sort(got)
	if !slices.Equal(got, []string{"empty", "tagged"}) {
		t.Fatalf("delivered %v, want the two pods carrying managed", got)
	}
}

func TestMutatePropagatesCallbackError(t *testing.T) {
	_, s := newServer()
	pods := Pods(s)
	pods.Create(mkPod("a"))
	boom := errors.New("boom")
	if _, err := pods.Mutate("a", func(*api.Pod) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestListTyped(t *testing.T) {
	_, s := newServer()
	pods := Pods(s)
	pods.Create(mkPod("b"))
	pods.Create(mkPod("a"))
	Nodes(s).Create(&api.Node{ObjectMeta: api.ObjectMeta{Name: "n"}})
	list := pods.List()
	if len(list) != 2 || list[0].Name != "a" {
		t.Fatalf("list = %v", list)
	}
}

func TestWatchThroughClient(t *testing.T) {
	env, s := newServer()
	pods := Pods(s)
	q := pods.Watch(false)
	var names []string
	env.Go("w", func(p *sim.Proc) {
		ev, _ := q.Get(p)
		names = append(names, ev.Object.GetMeta().Name)
	})
	env.Go("m", func(p *sim.Proc) { pods.Create(mkPod("x")) })
	env.Run()
	if len(names) != 1 || names[0] != "x" {
		t.Fatalf("names = %v", names)
	}
}

func TestErrorPredicates(t *testing.T) {
	_, s := newServer()
	pods := Pods(s)
	_, err := pods.Get("missing")
	if !IsNotFound(err) || IsConflict(err) || IsExists(err) {
		t.Fatalf("predicate mismatch for %v", err)
	}
	pods.Create(mkPod("a"))
	_, err = pods.Create(mkPod("a"))
	if !IsExists(err) {
		t.Fatalf("want exists, got %v", err)
	}
}
