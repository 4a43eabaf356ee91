package experiments

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"kubeshare/internal/chaos"
	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/apiserver/apitest"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
	"kubeshare/internal/workload"
)

// TestRestartRelistsSendTheDiff runs a workload of the repo benchmark's
// durable_restart shape at seed 1 and counts the events its relists
// synthesize: 1000 short training jobs (20 kernels each) arriving 100 ms
// apart on average on 8×4 GPUs, the log on, a checkpoint every 2 s, and an
// apiserver crash/restore every 5 s until the last arrival. A relist hands a
// consumer what the restore changed and what was written before it
// reconnected, and nothing for an object still at the revision it saw: 336
// events over 420 relists. Re-sending every surviving object, as relists did
// before, synthesized 65 922 here. The stream check holds each consumer's
// view to the store's, content for content.
func TestRestartRelistsSendTheDiff(t *testing.T) {
	env := sim.NewEnv()
	c, err := newCluster(env, 8, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	apitest.Install(t, c.API)
	c.API.EnableDurability(apiserver.DurabilityConfig{CheckpointInterval: 2 * time.Second})
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 1000
	rng := simrand.New(1)
	gaps, demands := rng.Fork("arrivals"), rng.Fork("demands")
	arrivals := make([]time.Duration, jobs)
	for i, at := 0, time.Duration(0); i < jobs; i++ {
		at += gaps.ExpDuration(100 * time.Millisecond)
		arrivals[i] = at
	}
	var submitErr error
	workload.Submit(env, c.API, jobs, func(i int) (time.Duration, api.Object) {
		demand := demands.TruncNormal(0.30, 0.07, 0.05, 0.95)
		return arrivals[i], &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("job-%05d", i)},
			Spec: core.SharePodSpec{
				GPURequest: demand, GPULimit: min(1, demand*1.2), GPUMem: workload.MemShareTraining,
				Pod: api.PodSpec{Containers: []api.Container{{
					Name: "train", Image: workload.TrainImage,
					Env: map[string]string{
						workload.EnvSteps:        "20",
						workload.EnvStepKernelMS: strconv.Itoa(workload.DefaultStepKernelMS),
					},
				}}},
			},
		}
	}, &submitErr)
	restarts := 0
	env.Go("restarter", func(p *sim.Proc) {
		for p.Sleep(5 * time.Second); env.Now() < arrivals[jobs-1]; p.Sleep(5 * time.Second) {
			if _, err := c.API.Restart(); err != nil {
				t.Errorf("restart: %v", err)
				return
			}
			restarts++
		}
	})
	env.RunUntil(20 * time.Minute)
	if submitErr != nil {
		t.Fatal(submitErr)
	}
	for _, v := range chaos.VerifyQuiescence(c, ks) {
		t.Errorf("invariant violated: %v", v)
	}

	relists, synthesized := 0, 0
	for _, r := range c.API.Reflectors("") {
		_, n, events := r.Stats()
		relists += n
		synthesized += events
	}
	t.Logf("%d restarts, %d relists, %d synthesized relist events", restarts, relists, synthesized)
	if restarts == 0 || relists < restarts {
		t.Fatalf("%d restarts made %d relists: the restart path went untested", restarts, relists)
	}
	if synthesized > 400 {
		t.Fatalf("relists synthesized %d events, want at most 400: a restart resyncs what it did not change", synthesized)
	}
}
