package apiserver

import (
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// TestEventSinkDedup pins the Kubernetes-style dedup: repeats of the same
// (object, reason, source, type) collapse into one stored object whose
// Count climbs and LastTime/Message advance.
func TestEventSinkDedup(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	rec := s.Obs().EventSource("kubelet/node-0")
	env.Go("emitter", func(p *sim.Proc) {
		rec.Eventf("Pod", "p1", obs.EventWarning, "FailedStart", "exit %d", 1)
		p.Sleep(time.Second)
		rec.Eventf("Pod", "p1", obs.EventWarning, "FailedStart", "exit %d", 2)
	})
	env.Run()
	evs := Events(s).List()
	if len(evs) != 1 {
		t.Fatalf("stored events = %d, want 1 deduped object", len(evs))
	}
	e := evs[0]
	if e.Count != 2 || e.FirstTime != 0 || e.LastTime != time.Second || e.Message != "exit 2" {
		t.Fatalf("deduped event = %+v", e)
	}
}

// TestEventSinkRestartRecovery replaces the sink with a freshly built one
// over the same store — a recorder restart. The new sink must rebuild its
// dedup index from the stored api.Events: a repeat of a pre-restart event
// updates the existing object in place, and a brand-new event gets a name
// that does not collide with the ones already issued.
func TestEventSinkRestartRecovery(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	rec := s.Obs().EventSource("kubelet/node-0")
	env.Go("before", func(p *sim.Proc) {
		rec.Eventf("Pod", "p1", obs.EventWarning, "FailedStart", "exit 1")
		rec.Eventf("Pod", "p2", obs.EventNormal, "Started", "ok")
	})
	env.Run()
	if n := len(Events(s).List()); n != 2 {
		t.Fatalf("stored events before restart = %d", n)
	}

	// Restart the recorder: a new sink over the same (persisted) store.
	s.Obs().SetEventSink(newEventSink(s))

	env.Go("after", func(p *sim.Proc) {
		p.Sleep(time.Second)
		rec.Eventf("Pod", "p1", obs.EventWarning, "FailedStart", "exit 2") // pre-restart repeat
		rec.Eventf("Pod", "p3", obs.EventNormal, "Started", "ok")          // brand-new
	})
	env.Run()

	evs := Events(s).List()
	if len(evs) != 3 {
		t.Fatalf("stored events after restart = %d, want 3 (repeat deduped, new created)", len(evs))
	}
	byName := map[string]int{}
	names := map[string]bool{}
	for _, e := range evs {
		if names[e.Name] {
			t.Fatalf("duplicate event object name %q after restart", e.Name)
		}
		names[e.Name] = true
		byName[e.InvolvedName] = e.Count
	}
	if byName["p1"] != 2 {
		t.Fatalf("pre-restart event not deduped into existing object: counts %v", byName)
	}
	if byName["p3"] != 1 {
		t.Fatalf("post-restart event missing: counts %v", byName)
	}

	// The sequence resumes above the highest number, not the last name:
	// evt-100000 sorts before evt-99999. A name not of the evt-N form is
	// ignored, even one that starts like it.
	for _, name := range []string{"evt-99999", "evt-100000", "evt-200000-imported"} {
		if _, err := Events(s).Create(&api.Event{ObjectMeta: api.ObjectMeta{Name: name}, InvolvedName: name}); err != nil {
			t.Fatal(err)
		}
	}
	s.Obs().SetEventSink(newEventSink(s))
	env.Go("after-import", func(p *sim.Proc) {
		rec.Eventf("Pod", "p4", obs.EventNormal, "Started", "ok")
	})
	env.Run()
	if e, err := Events(s).Get("evt-100001"); err != nil || e.InvolvedName != "p4" {
		t.Fatalf("next event after evt-100000: %v, %+v", err, e)
	}
}
