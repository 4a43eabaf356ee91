package storetest

import (
	"fmt"
	"strings"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// recorder stands in for the *testing.T of a test the canary should fail.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper()                      {}
func (r *recorder) Cleanup(func())               {}
func (r *recorder) Errorf(f string, args ...any) { r.errs = append(r.errs, fmt.Sprintf(f, args...)) }

func pod(name string) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name, Labels: map[string]string{"app": "x"}},
		Spec:       api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
	}
}

// world runs one writer (create, status update, delete of a second pod)
// against one watching consumer and returns what the canary reported.
func world(t *testing.T, consume func(store.Event)) []string {
	t.Helper()
	env := sim.NewEnv()
	st := store.New(env)
	rec := &recorder{TB: t}
	c := Install(rec, st)
	q := st.Watch("Pod", false)
	env.Go("consumer", func(p *sim.Proc) {
		for {
			ev, ok := q.Get(p)
			if !ok {
				return
			}
			consume(ev)
		}
	})
	env.Go("writer", func(p *sim.Proc) {
		a, err := st.Create(pod("a"))
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(1)
		next := a.DeepCopyObject().(*api.Pod) // a is the published snapshot
		next.Status.Phase = api.PodRunning
		if _, err := st.UpdateStatus(next); err != nil {
			t.Error(err)
		}
		if _, err := st.Create(pod("b")); err != nil {
			t.Error(err)
		}
		p.Sleep(1)
		if err := st.Delete("Pod", "b"); err != nil {
			t.Error(err)
		}
		st.StopWatch(q)
	})
	env.Run()
	c.Check()
	return rec.errs
}

func TestCanaryQuietOnReadOnlyConsumer(t *testing.T) {
	var phases []api.PodPhase
	errs := world(t, func(ev store.Event) {
		own := ev.Object.DeepCopyObject().(*api.Pod)
		own.Status.Phase = api.PodFailed // an owned copy may change
		phases = append(phases, ev.Object.(*api.Pod).Status.Phase)
	})
	if len(errs) != 0 {
		t.Fatalf("canary reported on a read-only consumer: %q", errs)
	}
	if len(phases) != 4 {
		t.Fatalf("consumer saw %d events, want 4", len(phases))
	}
}

// The canary has to bite: a consumer that writes through an event object is
// named with the key, the revision and the field.
func TestCanaryCatchesConsumerMutation(t *testing.T) {
	errs := world(t, func(ev store.Event) {
		if ev.Type == store.Added && ev.Object.GetMeta().Name == "a" {
			ev.Object.(*api.Pod).Status.Phase = api.PodFailed
		}
	})
	if len(errs) != 1 {
		t.Fatalf("canary errors = %q, want exactly one", errs)
	}
	for _, want := range []string{"Pod/a", "rev 1", "ADDED", "Status.Phase: have Failed, published "} {
		if !strings.Contains(errs[0], want) {
			t.Errorf("report %q lacks %q", errs[0], want)
		}
	}
}

// A superseded snapshot is still shared (history, reflector caches, anyone
// who kept it), and reference-typed fields are the easy ones to get wrong —
// doubly so since a status write shares its metadata maps with the revision
// before: the late write corrupts both snapshots and both are named.
func TestCanaryCatchesLateMapWrite(t *testing.T) {
	var first api.Object
	errs := world(t, func(ev store.Event) {
		switch {
		case first == nil:
			first = ev.Object
		case ev.Type == store.Deleted:
			first.GetMeta().Labels["app"] = "y"
			first.GetMeta().Labels["extra"] = "z"
		}
	})
	if len(errs) != 2 {
		t.Fatalf("canary errors = %q, want one per snapshot sharing the map", errs)
	}
	for i, rev := range []string{"rev 1 (ADDED)", "rev 2 (MODIFIED)"} {
		for _, want := range []string{"Pod/a", rev, "Labels[app]: have y, published x", "Labels[extra]: have z, published <absent>"} {
			if !strings.Contains(errs[i], want) {
				t.Errorf("report %q lacks %q", errs[i], want)
			}
		}
	}
}

// The one mistake the ownership rule makes possible: the object MutateStatus
// hands its closure owns its Status and nothing else, so a closure that
// writes a spec or metadata map entry writes into the stored snapshot. The
// canary names that snapshot and the fields; scalar spec writes stay in the
// closure's own struct and are simply discarded.
func TestCanaryCatchesMutateStatusSpecMapWrite(t *testing.T) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	rec := &recorder{TB: t}
	c := Install(rec, srv.Store())
	pods := apiserver.Pods(srv)
	p := pod("a")
	p.Spec.Containers[0].Env = map[string]string{"K": "v"}
	if _, err := pods.Create(p); err != nil {
		t.Fatal(err)
	}
	updated, err := pods.MutateStatus("a", func(cur *api.Pod) error {
		cur.Status.Phase = api.PodRunning // its own
		cur.Spec.NodeName = "discarded"   // a scalar in the closure's own struct
		cur.Spec.Containers[0].Env["K"] = "scribbled"
		cur.Labels["app"] = "scribbled"
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if updated.Status.Phase != api.PodRunning || updated.Spec.NodeName != "" {
		t.Fatalf("status write published %+v", updated)
	}
	c.Check()
	if len(rec.errs) != 1 {
		t.Fatalf("canary errors = %q, want exactly one", rec.errs)
	}
	for _, want := range []string{"Pod/a", "rev 1 (ADDED)", "Labels[app]: have scribbled, published x",
		"Spec.Containers[0].Env[K]: have scribbled, published v"} {
		if !strings.Contains(rec.errs[0], want) {
			t.Errorf("report %q lacks %q", rec.errs[0], want)
		}
	}
	if strings.Contains(rec.errs[0], "NodeName") {
		t.Errorf("report %q blames a scalar the closure owned", rec.errs[0])
	}
}

// The rule the store's one-copy write adds: the object a Mutate or
// MutateStatus closure receives becomes the published revision, so a closure
// that keeps it and writes to it after the call returns writes into a shared
// snapshot. The canary names it.
func TestCanaryCatchesRetainedWorkingObject(t *testing.T) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	rec := &recorder{TB: t}
	c := Install(rec, srv.Store())
	pods := apiserver.Pods(srv)
	if _, err := pods.Create(pod("a")); err != nil {
		t.Fatal(err)
	}
	var kept *api.Pod
	if _, err := pods.MutateStatus("a", func(cur *api.Pod) error {
		cur.Status.Phase = api.PodRunning
		kept = cur
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	kept.Status.Phase = api.PodFailed
	c.Check()
	if len(rec.errs) != 1 {
		t.Fatalf("canary errors = %q, want exactly one", rec.errs)
	}
	for _, want := range []string{"Pod/a", "rev 2 (MODIFIED)", "Status.Phase: have Failed, published Running"} {
		if !strings.Contains(rec.errs[0], want) {
			t.Errorf("report %q lacks %q", rec.errs[0], want)
		}
	}
}

// The rule the owning create adds: Client.Create publishes the object its
// caller built, so a caller that keeps it and writes to it after the call
// returns writes into a shared snapshot. The canary names it.
func TestCanaryCatchesRetainedCreatedObject(t *testing.T) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	rec := &recorder{TB: t}
	c := Install(rec, srv.Store())
	pods := apiserver.Pods(srv)
	kept := pod("a")
	if _, err := pods.Create(kept); err != nil {
		t.Fatal(err)
	}
	kept.Status.Phase = api.PodFailed
	c.Check()
	if len(rec.errs) != 1 {
		t.Fatalf("canary errors = %q, want exactly one", rec.errs)
	}
	for _, want := range []string{"Pod/a", "rev 1 (ADDED)", "Status.Phase: have Failed, published "} {
		if !strings.Contains(rec.errs[0], want) {
			t.Errorf("report %q lacks %q", rec.errs[0], want)
		}
	}
}

// One object per revision: the store may not hold a different pointer than
// the one it published.
func TestCanaryChecksStoreHoldsWhatItPublished(t *testing.T) {
	env := sim.NewEnv()
	st := store.New(env)
	rec := &recorder{TB: t}
	c := Install(rec, st)
	if _, err := st.Create(pod("a")); err != nil {
		t.Fatal(err)
	}
	c.Check()
	if len(rec.errs) != 0 {
		t.Fatalf("clean store reported: %q", rec.errs)
	}
	// Forge a publication the store does not hold.
	forged := c.seen[0]
	forged.ev.Object = forged.want
	c.seen[0] = forged
	c.Check()
	if len(rec.errs) != 1 || !strings.Contains(rec.errs[0], "different pointer") {
		t.Fatalf("canary errors = %q", rec.errs)
	}
}
