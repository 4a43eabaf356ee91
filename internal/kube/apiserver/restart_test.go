package apiserver

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// TestReflectorRelistAcrossRestartEpoch: an apiserver restart closes every
// stream, and even though the restored store's history could satisfy a
// revision resume, the epoch fence must force a relist — the old process's
// watch bookkeeping is gone and a resume would trust state that no longer
// exists. The sequence across the restart is a golden: no event lost, no
// event duplicated, survivors re-synced exactly once.
func TestReflectorRelistAcrossRestartEpoch(t *testing.T) {
	env, s := newServer()
	s.EnableDurability(DurabilityConfig{})
	r := s.NewNamedReflector("test", "Pod", WatchOptions{Replay: true})
	trace := collectTrace(env, r)

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
		"ADDED w0",    // replay
		"ADDED w1",    // live
		"MODIFIED w0", // relist after restart: survivors re-synced
		"MODIFIED w1",
		"ADDED w2",   // post-restart mutation through the new epoch
		"DELETED w0", // live after relist
	}
	if !reflect.DeepEqual(*trace, want) {
		t.Fatalf("event sequence:\n got %q\nwant %q", *trace, want)
	}
	if resumes, relists := r.Stats(); resumes != 0 || relists != 1 {
		t.Fatalf("resumes=%d relists=%d, want 0/1 (epoch fence must forbid resume)", resumes, relists)
	}
	r.Stop()
}

// TestReflectorDropDuringRelistBacklog injects a watch drop while the
// restart-triggered relist backlog is still draining (the consumer paces
// one event per 100ms, so the second relist's diff races the first's
// delivery). The double-recovery must not double-deliver: every ADDED
// appears exactly once per object lifetime, and the final trace is a
// golden count per event.
func TestReflectorDropDuringRelistBacklog(t *testing.T) {
	env, s := newServer()
	s.EnableDurability(DurabilityConfig{})
	r := s.NewNamedReflector("test", "Pod", WatchOptions{Replay: true})
	var trace []string
	env.Go("slow-consumer", func(p *sim.Proc) {
		for {
			ev, ok := r.Get(p)
			if !ok {
				return
			}
			trace = append(trace, fmt.Sprintf("%s %s", ev.Type, ev.Object.GetMeta().Name))
			p.Sleep(100 * time.Millisecond) // pace delivery so drops land mid-backlog
		}
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
		// The relist synthesized 4 MODIFIED events; the consumer drains one
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
	// re-syncs each survivor exactly once. The drop that landed mid-backlog
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
	if resumes, relists := r.Stats(); resumes != 1 || relists != 1 {
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
