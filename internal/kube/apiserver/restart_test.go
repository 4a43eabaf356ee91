package apiserver

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// TestReflectorRelistAcrossRestartEpoch: an apiserver restart closes every
// stream, and even though the restored store's history could satisfy a
// revision resume, the epoch fence must force a relist — the old process's
// watch bookkeeping is gone and a resume would trust state that no longer
// exists. The sequence across the restart is a golden: no event lost, no
// event duplicated, and no event for a survivor the restore left at the
// revision the consumer saw.
func TestReflectorRelistAcrossRestartEpoch(t *testing.T) {
	env, s := newServer()
	s.EnableDurability(DurabilityConfig{})
	r, trace := informTrace(s, WatchOptions{Replay: true})

	pods := Pods(s)
	mustCreate(t, pods, mkPod("w0"))
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		mustCreate(t, pods, mkPod("w1"))
		p.Sleep(time.Second)
		if _, err := s.Restart(); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		mustCreate(t, pods, mkPod("w2"))
		p.Sleep(time.Second)
		if err := pods.Delete("w0"); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
	env.RunUntil(10 * time.Second)

	want := []string{
		"ADDED w0", // replay
		"ADDED w1", // live
		// The relist after the restart finds w0 and w1 as delivered: nothing.
		"ADDED w2",   // post-restart mutation through the new epoch
		"DELETED w0", // live after relist
	}
	if !reflect.DeepEqual(*trace, want) {
		t.Fatalf("event sequence:\n got %q\nwant %q", *trace, want)
	}
	if resumes, relists, _ := r.Stats(); resumes != 0 || relists != 1 {
		t.Fatalf("resumes=%d relists=%d, want 0/1 (epoch fence must forbid resume)", resumes, relists)
	}
	r.Stop()

	// A label-filtered reflector whose torn tail reverts names that sort
	// between survivors: the relist deletes exactly those, in name order,
	// re-adds the one whose deletion was reverted, and leaves the survivors
	// the tear did not touch alone. Reverted objects the filter never matched
	// stay invisible.
	env, s = newServer()
	s.EnableDurability(DurabilityConfig{})
	r, trace = informTrace(s, WatchOptions{Label: "web", Replay: true})
	pods = Pods(s)
	for _, name := range []string{"a0", "a2", "a4", "a5"} {
		mustCreate(t, pods, mkLabeledPod(name, "web"))
	}
	mustCreate(t, pods, mkLabeledPod("b0", "db"))
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		_, survives, _ := s.store.DurableSizes()
		mustCreate(t, pods, mkLabeledPod("a3", "web"))
		mustCreate(t, pods, mkLabeledPod("a1", "web"))
		mustCreate(t, pods, mkLabeledPod("a1x", "db"))
		if err := pods.Delete("a5"); err != nil {
			t.Errorf("delete: %v", err)
		}
		p.Sleep(time.Second)
		_, logged, _ := s.store.DurableSizes()
		s.TearWALTail(logged - survives - 1) // the first reverted frame keeps one byte
		if st, err := s.Restart(); err != nil || !st.TornTail {
			t.Errorf("restart: %v, %+v", err, st)
		}
	})
	env.RunUntil(10 * time.Second)

	want = []string{
		"ADDED a0", "ADDED a2", "ADDED a4", "ADDED a5", // replay
		"ADDED a3", "ADDED a1", "DELETED a5", // live, then reverted by the torn tail
		"ADDED a5",                 // relist: the reverted deletion
		"DELETED a1", "DELETED a3", // relist: vanished, name order
	}
	if !reflect.DeepEqual(*trace, want) {
		t.Fatalf("label relist across a torn tail:\n got %q\nwant %q", *trace, want)
	}
	r.Stop()
}

// TestReflectorRelistFloorReusedRevision: a reflector has seen x at
// revision R, a torn tail reverts R, and a write to x after the restart
// commits at the reused revision R before the reflector reconnects. The
// relist finds x at the revision it delivered, but R lies above what the
// restore kept, so an equal revision does not name the write the consumer
// saw: x must arrive again as MODIFIED, with the new content.
func TestReflectorRelistFloorReusedRevision(t *testing.T) {
	env, s := newServer()
	s.EnableDurability(DurabilityConfig{})
	var trace []string
	r := s.Inform("test", "consumer", "Pod", WatchOptions{Replay: true}, func(_ *sim.Proc, ev store.Event) {
		pod := ev.Object.(*api.Pod)
		trace = append(trace, fmt.Sprintf("%s %s@%d %q", ev.Type, pod.Name, ev.Rev, pod.Status.Message))
	})
	pods := Pods(s)
	mustCreate(t, pods, mkPod("x"))
	message := func(m string) func(*api.Pod) error {
		return func(pod *api.Pod) error { pod.Status.Message = m; return nil }
	}
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		_, before, _ := s.store.DurableSizes()
		if _, err := pods.MutateStatus("x", message("seen")); err != nil {
			t.Errorf("status write: %v", err)
			return
		}
		p.Sleep(time.Second) // delivered: the consumer holds x@2 "seen"
		_, logged, _ := s.store.DurableSizes()
		s.TearWALTail(logged - before - 1) // the write's frame keeps one byte
		if st, err := s.Restart(); err != nil || !st.TornTail || st.RestoredRev != 1 {
			t.Errorf("restart: %v, %+v", err, st)
			return
		}
		if pod, err := pods.MutateStatus("x", message("rewritten")); err != nil || pod.ResourceVersion != 2 {
			t.Errorf("post-restart write: %v at rev %d, want rev 2", err, pod.ResourceVersion)
		}
	})
	env.RunUntil(10 * time.Second)

	want := []string{
		`ADDED x@1 ""`,             // replay
		`MODIFIED x@2 "seen"`,      // live, then reverted by the torn tail
		`MODIFIED x@2 "rewritten"`, // relist: the same revision, another write
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("event sequence:\n got %q\nwant %q", trace, want)
	}
	if obj, _ := r.Cached("x"); obj.(*api.Pod).Status.Message != "rewritten" {
		t.Fatalf("cached x says %q, want the rewrite", obj.(*api.Pod).Status.Message)
	}
	r.Stop()
}

// TestReflectorRelistAfterUnseenRevert: a consumer deletes x through the
// server while its stream is down, and a torn tail reverts the delete. The
// relist finds x at the revision the stream delivered, below the restored
// revision, but the consumer holds the delete it made: x must arrive again,
// or the consumer never learns x is back.
func TestReflectorRelistAfterUnseenRevert(t *testing.T) {
	env, s := newServer()
	s.EnableDurability(DurabilityConfig{})
	var trace []string
	r := s.Inform("test", "consumer", "Pod", WatchOptions{Replay: true}, func(_ *sim.Proc, ev store.Event) {
		trace = append(trace, fmt.Sprintf("%s %s@%d", ev.Type, ev.Object.GetMeta().Name, ev.Rev))
	})
	pods := Pods(s)
	mustCreate(t, pods, mkPod("x"))
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second) // delivered: the consumer holds x@1
		r.DropFor(5 * time.Second)
		p.Sleep(time.Second)
		_, before, _ := s.store.DurableSizes()
		if err := pods.Delete("x"); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		_, logged, _ := s.store.DurableSizes()
		s.TearWALTail(logged - before - 1) // the delete's frame keeps one byte
		if st, err := s.Restart(); err != nil || !st.TornTail || st.RestoredRev != 1 {
			t.Errorf("restart: %v, %+v", err, st)
		}
	})
	env.RunUntil(10 * time.Second)
	want := []string{
		"ADDED x@1",    // live
		"MODIFIED x@1", // relist: the delete the consumer made was reverted
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("event sequence:\n got %q\nwant %q", trace, want)
	}
	r.Stop()
}

// TestReflectorDropDuringRelistBacklog injects a watch drop while the
// restart-triggered relist backlog is still draining (the consumer paces
// one event per 100ms, so the second relist's diff races the first's
// delivery). The backlog is four MODIFIED events: each pod is written after
// the restart and before the consumer reconnects. The double-recovery must
// not double-deliver: every ADDED appears exactly once per object lifetime,
// and the final trace is a golden count per event.
func TestReflectorDropDuringRelistBacklog(t *testing.T) {
	env, s := newServer()
	s.EnableDurability(DurabilityConfig{})
	var trace []string
	r := s.Inform("test", "slow-consumer", "Pod", WatchOptions{Replay: true}, func(p *sim.Proc, ev store.Event) {
		trace = append(trace, fmt.Sprintf("%s %s", ev.Type, ev.Object.GetMeta().Name))
		p.Sleep(100 * time.Millisecond) // pace delivery so drops land mid-backlog
	})

	pods := Pods(s)
	for i := 0; i < 4; i++ {
		mustCreate(t, pods, mkPod(fmt.Sprintf("w%d", i)))
	}
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		if _, err := s.Restart(); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			if _, err := pods.MutateStatus(fmt.Sprintf("w%d", i), func(pod *api.Pod) error {
				pod.Status.Message = "after the restart"
				return nil
			}); err != nil {
				t.Errorf("status write: %v", err)
			}
		}
		// The relist synthesizes 4 MODIFIED events; the consumer drains one
		// every 100ms. Sever the stream while that backlog is mid-flight.
		p.Sleep(150 * time.Millisecond)
		r.Drop()
		p.Sleep(time.Second)
		mustCreate(t, pods, mkPod("w4"))
	})
	env.RunUntil(10 * time.Second)

	counts := map[string]int{}
	for _, ev := range trace {
		counts[ev]++
	}
	// Golden counts: one ADDED per object ever, and the restart's relist
	// sends each pod written since exactly once. The drop that landed mid-backlog
	// does NOT double-deliver: the backlog drains first, by which point the
	// consumer's cursor sits at the restored head inside the new epoch, so
	// the reconnect is a clean resume — not a second relist re-sending the
	// survivors.
	want := map[string]int{
		"ADDED w0": 1, "ADDED w1": 1, "ADDED w2": 1, "ADDED w3": 1,
		"MODIFIED w0": 1, "MODIFIED w1": 1, "MODIFIED w2": 1, "MODIFIED w3": 1,
		"ADDED w4": 1,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("event counts diverged (double delivery or loss):\n got %v\nwant %v\ntrace: %q", counts, want, trace)
	}
	if resumes, relists, _ := r.Stats(); resumes != 1 || relists != 1 {
		t.Fatalf("resumes=%d relists=%d, want 1/1 (restart relists, drop resumes)", resumes, relists)
	}
	r.Stop()
}

// TestResumeFromPreRestartRevisionIsGone pins the client-visible fence: a
// raw WatchResume from a revision observed before the restart must get 410
// Gone (history died with the old process), never a silent partial stream.
func TestResumeFromPreRestartRevisionIsGone(t *testing.T) {
	env, s := newServer()
	s.EnableDurability(DurabilityConfig{})
	pods := Pods(s)
	mustCreate(t, pods, mkPod("a"))
	preRev := s.Revision()
	mustCreate(t, pods, mkPod("b"))
	env.Run()
	if _, err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WatchResume("Pod", WatchOptions{}, preRev); !errors.Is(err, store.ErrGone) {
		t.Fatalf("resume from pre-restart revision: got %v, want 410 Gone", err)
	}
	// Resuming from the restored head is fine — nothing was lost.
	if _, err := s.WatchResume("Pod", WatchOptions{}, s.Revision()); err != nil {
		t.Fatalf("resume from restored head: %v", err)
	}
}
