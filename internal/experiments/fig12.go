package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// The two interference job profiles of §5.5. Both request less than half a
// GPU so any two can share, but Job A over-provisions (requests 0.5, needs
// ≈0.3 duty) while Job B under-provisions (requests 0.4, needs ≈0.75 duty).
// B is therefore fragile to contention; A is resilient.
type interferenceProfile struct {
	kind    string
	request float64
	limit   float64
	// kernelMS/hostMS set the natural duty cycle kernel/(kernel+host).
	kernelMS float64
	hostMS   float64
}

var (
	jobA = interferenceProfile{kind: "A", request: 0.5, limit: 1.0, kernelMS: 10, hostMS: 23.3}
	jobB = interferenceProfile{kind: "B", request: 0.4, limit: 1.0, kernelMS: 10, hostMS: 3.3}
)

// interferenceSharePod renders a profile as a sharePod with the given step
// count and optional anti-affinity label.
func interferenceSharePod(name string, prof interferenceProfile, steps int, antiAff string) *core.SharePod {
	return &core.SharePod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: core.SharePodSpec{
			GPURequest:   prof.request,
			GPULimit:     prof.limit,
			GPUMem:       workload.MemShareSmall,
			AntiAffinity: antiAff,
			Pod: api.PodSpec{Containers: []api.Container{{
				Name:  "train",
				Image: workload.TrainImage,
				Env: map[string]string{
					workload.EnvSteps:        fmt.Sprintf("%d", steps),
					workload.EnvStepKernelMS: fmt.Sprintf("%.2f", prof.kernelMS),
					workload.EnvStepHostMS:   fmt.Sprintf("%.2f", prof.hostMS),
				},
			}}},
		},
	}
}

// fig12Steps is the training length per job.
var fig12Steps = [...]int{Quick: 2000, Full: 3000}

// runCombo measures each job's wall time when the listed jobs share one
// GPU through KubeShare.
func runCombo(steps int, profs ...interferenceProfile) (map[string]time.Duration, error) {
	env := sim.NewEnv()
	c, err := newCluster(env, 1, 1, false)
	if err != nil {
		return nil, err
	}
	if _, err := schedfw.Install(c, core.Config{}); err != nil {
		return nil, err
	}
	jobs := make([]api.Object, len(profs))
	for i, prof := range profs {
		jobs[i] = interferenceSharePod(fmt.Sprintf("job-%s-%d", prof.kind, i), prof, steps, "")
	}
	return runJobs(env, c, KubeShare, jobs...)
}

// Fig12 measures the slowdown of each job combination on a shared GPU
// relative to running alone. The paper's shape: B+B ≈1.5×, all
// combinations involving A ≲1.1×.
func Fig12(s Scale) (*metrics.Table, error) {
	// Indices 0–1 are the solo baselines, 2–4 the shared combinations; each
	// combo is an independent single-GPU cluster, so all five fan out.
	combos := [][]interferenceProfile{
		{jobA}, {jobB},
		{jobA, jobA}, {jobB, jobB}, {jobA, jobB},
	}
	walls, err := runIndexed(len(combos), func(i int) (map[string]time.Duration, error) {
		return runCombo(fig12Steps[s], combos[i]...)
	})
	if err != nil {
		return nil, err
	}
	baseline := map[string]time.Duration{
		"A": walls[0]["job-A-0"],
		"B": walls[1]["job-B-0"],
	}
	tb := metrics.NewTable("Figure 12: slowdown on a shared GPU per job combination",
		"combo", "job", "slowdown")
	for ci, combo := range combos[2:] {
		label := combo[0].kind + "+" + combo[1].kind
		for i, prof := range combo {
			name := fmt.Sprintf("job-%s-%d", prof.kind, i)
			slow := walls[ci+2][name].Seconds() / baseline[prof.kind].Seconds()
			tb.AddRow(label, prof.kind, slow)
		}
	}
	return tb, nil
}
