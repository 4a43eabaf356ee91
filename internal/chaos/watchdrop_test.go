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

// TestSharePodStatusSurvivesWatchDrop watches the sharePods through a
// reflector that is repeatedly severed with the chaos Drop hook while a
// workload drives them through their status writes. The reflector's
// resume/relist semantics must deliver every sharePod's final in-place
// update regardless of where the drops landed.
func TestSharePodStatusSurvivesWatchDrop(t *testing.T) {
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	workload.RegisterImages(c)
	if _, err := schedfw.Install(c, core.Config{}); err != nil {
		t.Fatal(err)
	}

	// The consumer mirrors the sharePods from the reflector stream.
	seen := map[string]*core.SharePod{} // name -> last snapshot delivered
	r := c.API.Inform("sharepod-consumer", "sharepod-consumer", core.KindSharePod, apiserver.WatchOptions{Replay: true}, func(_ *sim.Proc, ev store.Event) {
		seen[ev.Object.GetMeta().Name] = ev.Object.(*core.SharePod)
	})

	// Sever the stream every couple of seconds while the workload runs.
	env.Go("sharepod-dropper", func(p *sim.Proc) {
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
	stored := core.SharePods(c.API).List()
	if len(stored) != len(jobs) {
		t.Fatalf("store has %d sharePods, submitted %d", len(stored), len(jobs))
	}
	for _, sp := range stored {
		if !sp.Terminated() {
			t.Errorf("sharePod %s ended %s, want a terminal phase", sp.Name, sp.Status.Phase)
		}
		got, ok := seen[sp.Name]
		if !ok {
			t.Errorf("sharePod %s never delivered through the dropped watch", sp.Name)
			continue
		}
		if got.ResourceVersion != sp.ResourceVersion || got.Status != sp.Status {
			t.Errorf("sharePod %s delivered at rv %d %+v, store has rv %d %+v",
				sp.Name, got.ResourceVersion, got.Status, sp.ResourceVersion, sp.Status)
		}
	}
	if len(seen) != len(stored) {
		t.Errorf("consumer saw %d sharePods, store has %d", len(seen), len(stored))
	}
}
