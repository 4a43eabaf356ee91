package apiserver

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// TestInformHandlesEveryEventInItsLoop: Inform's handler runs in the loop
// proc it started, and sees every event of the watch — the replay, live
// events, the ones a Drop resumes from history, and the ones an apiserver
// restart's relist synthesizes (Added and Deleted for what changed while the
// stream was down; the unchanged survivors get nothing). After Stop no
// handler runs, not even for an event already handed to the loop, and the
// loop finishes.
func TestInformHandlesEveryEventInItsLoop(t *testing.T) {
	env, s := newServer()
	s.EnableDurability(DurabilityConfig{})
	var r *Reflector
	var trace []string
	r = s.Inform("test", "informer", "Pod", WatchOptions{Replay: true}, func(p *sim.Proc, ev store.Event) {
		if p != r.loop {
			t.Errorf("handler ran in %v, want the loop %v", p, r.loop)
		}
		trace = append(trace, fmt.Sprintf("%s %s", ev.Type, ev.Object.GetMeta().Name))
	})
	pods := Pods(s)
	mustCreate(t, pods, mkPod("w0"))
	env.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		mustCreate(t, pods, mkPod("w1"))
		p.Sleep(time.Second)
		r.Drop()
		mustCreate(t, pods, mkPod("w2")) // resumed from history
		p.Sleep(time.Second)
		if _, err := s.Restart(); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		// Before the loop relists: it learns of both only from the diff.
		mustCreate(t, pods, mkPod("w3"))
		if err := pods.Delete("w1"); err != nil {
			t.Errorf("delete: %v", err)
		}
		p.Sleep(time.Second)
		if err := pods.Delete("w0"); err != nil {
			t.Errorf("delete: %v", err)
		}
		p.Sleep(time.Second)
		mustCreate(t, pods, mkPod("w4")) // handed to the parked loop…
		r.Stop()                         // …and stopped before it runs
		mustCreate(t, pods, mkPod("w5"))
	})
	env.Run()

	want := []string{
		"ADDED w0", // replay
		"ADDED w1", // live
		"ADDED w2", // resumed after the drop
		// The restart's relist: only what changed meanwhile.
		"ADDED w3",
		"DELETED w1",
		"DELETED w0", // live again
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("events handled:\n got %q\nwant %q", trace, want)
	}
	if resumes, relists, _ := r.Stats(); resumes != 1 || relists != 1 {
		t.Fatalf("resumes=%d relists=%d, want 1/1", resumes, relists)
	}
	if !r.loop.Finished() {
		t.Fatal("the loop outlived its stopped watch")
	}
	if n := len(s.Reflectors("")); n != 0 {
		t.Fatalf("%d reflectors live after Stop", n)
	}
}
