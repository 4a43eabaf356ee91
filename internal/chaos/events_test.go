package chaos

import (
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// TestEventsSurviveWatchDrop watches the persisted Event objects through a
// reflector that is repeatedly severed with the chaos Drop hook while a
// workload generates events. The reflector's resume/relist semantics must
// deliver every event's final state regardless of where the drops landed.
func TestEventsSurviveWatchDrop(t *testing.T) {
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	workload.RegisterImages(c)
	if _, err := schedfw.Install(c, core.Config{}); err != nil {
		t.Fatal(err)
	}

	// The consumer mirrors the Event store from the reflector stream.
	seen := map[string]int{} // event name -> last Count delivered
	r := c.API.Inform("event-consumer", "event-consumer", api.KindEvent, apiserver.WatchOptions{Replay: true}, func(_ *sim.Proc, ev store.Event) {
		e := ev.Object.(*api.Event)
		seen[e.Name] = e.Count
	})

	// Sever the stream every couple of seconds while the workload runs.
	env.Go("event-dropper", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(2 * time.Second)
			r.Drop()
		}
	})

	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 12, MeanInterArrival: time.Second,
		DemandMean: 0.4, DemandVar: 1,
		JobDuration: 8 * time.Second, Seed: 7,
	})
	var submitErr error
	workload.Submit(env, c.API, len(jobs), func(i int) (time.Duration, api.Object) {
		return jobs[i].Arrival, workload.SharePodFor(jobs[i])
	}, &submitErr)
	env.Run()
	if submitErr != nil {
		t.Fatal(submitErr)
	}

	resumes, relists := r.Stats()
	if resumes+relists == 0 {
		t.Fatal("reflector never reconnected — the drops did not exercise recovery")
	}
	stored := apiserver.Events(c.API).List()
	if len(stored) == 0 {
		t.Fatal("workload produced no Event objects")
	}
	for _, e := range stored {
		count, ok := seen[e.Name]
		if !ok {
			t.Errorf("event %s (%s %s) never delivered through the dropped watch", e.Name, e.Reason, e.InvolvedName)
			continue
		}
		if count != e.Count {
			t.Errorf("event %s delivered Count=%d, store has %d", e.Name, count, e.Count)
		}
	}
	if len(seen) != len(stored) {
		t.Errorf("consumer saw %d events, store has %d", len(seen), len(stored))
	}
}
