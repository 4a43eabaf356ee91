package apiserver

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
)

// mkLabeledPod makes a pod carrying the label key key.
func mkLabeledPod(name, key string) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name, Labels: map[string]string{key: "yes"}},
		Spec:       api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
	}
}

// informTrace informs a printable "TYPE name" trace of a Pod watch's events.
func informTrace(s *Server, opts WatchOptions) (*Reflector, *[]string) {
	trace := &[]string{}
	r := s.Inform("test", "consumer", "Pod", opts, func(_ *sim.Proc, ev store.Event) {
		*trace = append(*trace, fmt.Sprintf("%s %s", ev.Type, ev.Object.GetMeta().Name))
	})
	return r, trace
}

// TestReflectorResumeGoldenSequence is the watch-filter regression test: a
// filtered watch dropped mid-stream and resumed from history must deliver
// exactly the events an undropped watch would have — no duplicates, no
// gaps — as a golden event sequence.
func TestReflectorResumeGoldenSequence(t *testing.T) {
	env, s := newServer()
	r, trace := informTrace(s, WatchOptions{Label: "web", Replay: true})

	pods := Pods(s)
	if _, err := pods.Create(mkLabeledPod("w0", "web")); err != nil {
		t.Fatal(err)
	}
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		mustCreate(t, pods, mkLabeledPod("w1", "web"))
		mustCreate(t, pods, mkLabeledPod("db0", "db")) // filtered out
		p.Sleep(time.Second)
		r.Drop()
		// Mutations during the outage: only recoverable via resume.
		mustCreate(t, pods, mkLabeledPod("w2", "web"))
		if _, err := pods.MutateStatus("w1", func(pod *api.Pod) error {
			pod.Status.Message = "updated"
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := pods.Delete("w0"); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Second)
		mustCreate(t, pods, mkLabeledPod("w3", "web"))
	})
	env.RunUntil(10 * time.Second)

	want := []string{
		"ADDED w0",    // replay
		"ADDED w1",    // live
		"ADDED w2",    // resumed from history
		"MODIFIED w1", // resumed from history
		"DELETED w0",  // resumed from history
		"ADDED w3",    // live after resume
	}
	if !reflect.DeepEqual(*trace, want) {
		t.Fatalf("event sequence:\n got %q\nwant %q", *trace, want)
	}
	if resumes, relists, _ := r.Stats(); resumes != 1 || relists != 0 {
		t.Fatalf("resumes=%d relists=%d, want 1/0", resumes, relists)
	}
	r.Stop()
}

// TestReflectorRelistOnCompactedGap drops the watch and then churns far past
// the history horizon, forcing the 410-Gone relist path; the synthesized
// diff must reconcile the consumer exactly (adds, modifies, deletes), again
// as a golden sequence.
func TestReflectorRelistOnCompactedGap(t *testing.T) {
	env, s := newServer()
	s.SetWatchHistoryCap(4)
	r, trace := informTrace(s, WatchOptions{Label: "web", Replay: true})

	pods := Pods(s)
	mustCreate(t, pods, mkLabeledPod("w0", "web"))
	mustCreate(t, pods, mkLabeledPod("w1", "web"))
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		r.Drop()
		// Outage churn: delete w0, modify w1, add w2, plus unrelated noise
		// that flushes the 4-entry history so resume is impossible.
		if err := pods.Delete("w0"); err != nil {
			t.Fatal(err)
		}
		if _, err := pods.MutateStatus("w1", func(pod *api.Pod) error {
			pod.Status.Message = "survived"
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		mustCreate(t, pods, mkLabeledPod("w2", "web"))
		for i := 0; i < 8; i++ {
			mustCreate(t, pods, mkLabeledPod(fmt.Sprintf("noise%d", i), "db"))
		}
		p.Sleep(time.Second)
		mustCreate(t, pods, mkLabeledPod("w3", "web"))
	})
	env.RunUntil(10 * time.Second)

	want := []string{
		"ADDED w0", // replay
		"ADDED w1",
		"MODIFIED w1", // relist: survivor (state re-sent)
		"ADDED w2",    // relist: appeared during outage
		"DELETED w0",  // relist: vanished during outage
		"ADDED w3",    // live after relist
	}
	if !reflect.DeepEqual(*trace, want) {
		t.Fatalf("event sequence:\n got %q\nwant %q", *trace, want)
	}
	if resumes, relists, _ := r.Stats(); resumes != 0 || relists != 1 {
		t.Fatalf("resumes=%d relists=%d, want 0/1", resumes, relists)
	}
	// The relisted survivor must carry the post-outage state.
	got, err := pods.Get("w1")
	if err != nil || got.Status.Message != "survived" {
		t.Fatalf("w1 state: %v %v", got, err)
	}
	r.Stop()
}

// TestReflectorRandomizedConvergence hammers a reflector with random
// mutations and drops; the event-built cache must always converge to the
// server's filtered list state.
func TestReflectorRandomizedConvergence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		env, s := newServer()
		s.SetWatchHistoryCap(8)
		opts := WatchOptions{Label: "web", Replay: true}
		state := map[string]int64{} // name → last seen RV
		r := s.Inform("test", "consumer", "Pod", opts, func(_ *sim.Proc, ev store.Event) {
			name := ev.Object.GetMeta().Name
			if ev.Type == store.Deleted {
				delete(state, name)
			} else {
				state[name] = ev.Object.GetMeta().ResourceVersion
			}
		})
		rng := simrand.New(seed)
		pods := Pods(s)
		env.Go("driver", func(p *sim.Proc) {
			live := []string{}
			for i := 0; i < 400; i++ {
				key := "web"
				if rng.Intn(3) == 0 {
					key = "db"
				}
				switch op := rng.Intn(10); {
				case op < 5 || len(live) == 0:
					name := fmt.Sprintf("p%d", i)
					mustCreate(t, pods, mkLabeledPod(name, key))
					live = append(live, name)
				case op < 8:
					if err := pods.Delete(live[rng.Intn(len(live))]); err != nil && !IsNotFound(err) {
						t.Error(err)
					}
				default:
					name := live[rng.Intn(len(live))]
					_, err := pods.MutateStatus(name, func(pod *api.Pod) error {
						pod.Status.Message = fmt.Sprintf("m%d", i)
						return nil
					})
					if err != nil && !IsNotFound(err) {
						t.Error(err)
					}
				}
				if rng.Intn(12) == 0 {
					r.Drop()
				}
				if rng.Intn(4) == 0 {
					p.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond)
				}
			}
		})
		env.RunUntil(time.Hour)
		want := map[string]int64{}
		pods.Scan(func(pod *api.Pod) bool {
			if opts.Matches(pod) {
				want[pod.Name] = pod.ResourceVersion
			}
			return true
		})
		if !reflect.DeepEqual(state, want) {
			t.Fatalf("seed %d: cache diverged:\n got %v\nwant %v", seed, state, want)
		}
		r.Stop()
	}
}

// TestReflectorNodeScopedRelist: a node-scoped reflector that loses its
// stream for good — history compacted under it (410 Gone), or the server
// restarted into a new epoch — relists through the same filter its watch
// used: Added/Modified/Deleted are synthesized for this node's pods only, a
// pod bound to the node during the outage arrives as Added, and the cache
// the diff is taken against never holds another node's pod.
func TestReflectorNodeScopedRelist(t *testing.T) {
	onNode := func(name, node string) *api.Pod {
		pod := mkPod(name)
		pod.Spec.NodeName = node
		return pod
	}
	for _, tc := range []struct {
		name  string
		sever func(s *Server, r *Reflector) error
	}{
		{"compacted", func(_ *Server, r *Reflector) error { r.Drop(); return nil }},
		{"restart", func(s *Server, _ *Reflector) error { _, err := s.Restart(); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, s := newServer()
			s.EnableDurability(DurabilityConfig{})
			s.SetWatchHistoryCap(4)
			r, trace := informTrace(s, WatchOptions{Replay: true, Node: "n1"})

			pods := Pods(s)
			mustCreate(t, pods, onNode("a1", "n1"))
			mustCreate(t, pods, onNode("a2", "n1"))
			mustCreate(t, pods, onNode("b", "n2"))
			mustCreate(t, pods, onNode("c", "")) // unbound
			env.Go("driver", func(p *sim.Proc) {
				p.Sleep(time.Second)
				if err := tc.sever(s, r); err != nil {
					t.Errorf("sever: %v", err)
					return
				}
				// During the outage: one of ours goes, one changes, an unbound
				// pod is bound here, one is created here — and as much again
				// happens on n2, which also flushes the 4-entry history.
				if err := pods.Delete("a1"); err != nil {
					t.Error(err)
				}
				touch := func(pod *api.Pod) error { pod.Status.Message = "touched"; return nil }
				if _, err := pods.MutateStatus("a2", touch); err != nil {
					t.Error(err)
				}
				if _, err := pods.Mutate("c", func(pod *api.Pod) error { pod.Spec.NodeName = "n1"; return nil }); err != nil {
					t.Error(err)
				}
				mustCreate(t, pods, onNode("d", "n1"))
				if err := pods.Delete("b"); err != nil {
					t.Error(err)
				}
				for i := 0; i < 6; i++ {
					mustCreate(t, pods, onNode(fmt.Sprintf("e%d", i), "n2"))
				}
				if _, err := pods.MutateStatus("e0", touch); err != nil {
					t.Error(err)
				}
				p.Sleep(time.Second)
				mustCreate(t, pods, onNode("f", "n1"))
				mustCreate(t, pods, onNode("g", "n2"))
			})
			env.RunUntil(10 * time.Second)

			want := []string{
				"ADDED a1", "ADDED a2", // replay: n1's pods, not b or c
				"MODIFIED a2", // relist: survivor
				"ADDED c",     // relist: bound here during the outage
				"ADDED d",     // relist: created here during the outage
				"DELETED a1",  // relist: vanished during the outage
				"ADDED f",     // live after the relist
			}
			if !reflect.DeepEqual(*trace, want) {
				t.Fatalf("event sequence:\n got %q\nwant %q", *trace, want)
			}
			if resumes, relists, _ := r.Stats(); resumes != 0 || relists != 1 {
				t.Fatalf("resumes=%d relists=%d, want 0/1", resumes, relists)
			}
			known := slices.Sorted(maps.Keys(r.known))
			if want := []string{"a2", "c", "d", "f"}; !reflect.DeepEqual(known, want) {
				t.Fatalf("reflector cache holds %q, want %q", known, want)
			}
			r.Stop()
		})
	}
}

func mustCreate(t *testing.T, pods Client[*api.Pod], p *api.Pod) {
	t.Helper()
	if _, err := pods.Create(p); err != nil {
		t.Fatal(err)
	}
}
