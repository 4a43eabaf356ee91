package apiserver

import (
	"errors"
	"fmt"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
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

func TestValidatorRunsOnCreateAndUpdate(t *testing.T) {
	_, s := newServer()
	boom := errors.New("rejected")
	s.RegisterValidator("Pod", func(o api.Object) error {
		if o.(*api.Pod).Status.Message == "bad" {
			return boom
		}
		return nil
	})
	pods := Pods(s)
	bad := mkPod("a")
	bad.Status.Message = "bad"
	if _, err := pods.Create(bad); !errors.Is(err, boom) {
		t.Fatalf("create err = %v", err)
	}
	stored, err := pods.Create(mkPod("a"))
	if err != nil {
		t.Fatal(err)
	}
	good := stored.DeepCopyObject().(*api.Pod)
	good.Status.Message = "bad"
	if _, err := pods.Update(good); !errors.Is(err, boom) {
		t.Fatalf("update err = %v", err)
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

func TestStatusSubresourceIsolation(t *testing.T) {
	_, s := newServer()
	pods := Pods(s)
	pods.Create(mkPod("a"))

	// A spec write carrying a (stale or garbage) status must not persist it.
	if _, err := pods.Mutate("a", func(p *api.Pod) error {
		p.Spec.NodeName = "n1"
		p.Status.Phase = api.PodFailed // discarded by subresource semantics
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := pods.Get("a")
	if got.Status.Phase == api.PodFailed {
		t.Fatal("spec write persisted a status field")
	}

	// A status write must not clobber spec or labels.
	if _, err := pods.MutateStatus("a", func(p *api.Pod) error {
		p.Spec.NodeName = "bogus" // discarded
		p.Status.Phase = api.PodRunning
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = pods.Get("a")
	if got.Spec.NodeName != "n1" || got.Status.Phase != api.PodRunning {
		t.Fatalf("spec=%q phase=%q, want n1/Running", got.Spec.NodeName, got.Status.Phase)
	}
}

func TestListSelectorThroughClient(t *testing.T) {
	_, s := newServer()
	pods := Pods(s)
	for i, lbls := range []map[string]string{
		{"app": "web"}, {"app": "db"}, {"app": "web", "tier": "front"},
	} {
		p := mkPod(string(rune('a' + i)))
		p.Labels = lbls
		pods.Create(p)
	}
	got := pods.ListSelector(labels.SelectorFromMap(map[string]string{"app": "web"}))
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Fatalf("ListSelector = %v", got)
	}
	if n := len(pods.ListSelector(labels.HasKey("tier"))); n != 1 {
		t.Fatalf("HasKey(tier) matched %d", n)
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

func TestWatchFilteredBySelector(t *testing.T) {
	env, s := newServer()
	pods := Pods(s)
	q := s.WatchFiltered("Pod", WatchOptions{Selector: labels.HasKey("managed"), Replay: false})
	env.Go("churn", func(p *sim.Proc) {
		plain := mkPod("plain")
		pods.Create(plain)
		tagged := mkPod("tagged")
		tagged.Labels = map[string]string{"managed": "yes"}
		pods.Create(tagged)
	})
	env.Run()
	ev, ok := q.TryGet()
	if !ok || ev.Object.GetMeta().Name != "tagged" {
		t.Fatalf("ev=%v ok=%v", ev, ok)
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("unfiltered event delivered")
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
