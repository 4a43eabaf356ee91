package experiments

import (
	"errors"
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/devlib"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/metrics"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// fig18Params sizes the sharing-strategy comparison: the same seeded serving
// workload is replayed under each strategy (token time-slicing, MPS overlap,
// replica time-slicing) at two kernel granularities. The demand is chosen so
// two tenants pack a device near capacity — there the token path's per-grant
// handoff is pure overhead on small kernels (≈10% at 5 ms) while the overlap
// strategies run the same mix without it.
type fig18Params struct {
	nodes, jobs int
	// jobDuration is each job's serving time.
	jobDuration time.Duration
}

var fig18Runs = [...]fig18Params{
	Quick: {nodes: 1, jobs: 16, jobDuration: 10 * time.Second},
	Full:  {nodes: 2, jobs: 32, jobDuration: 20 * time.Second},
}

const (
	fig18GPUsPerNode = 4
	// fig18InterArrival paces the Poisson arrivals.
	fig18InterArrival = 500 * time.Millisecond
	// fig18DemandMean is each job's GPU busy fraction (variance 0: packing
	// is deterministic, so the strategy is the only variable across arms).
	fig18DemandMean = 0.48
)

// fig18Arm is one strategy × kernel-mix cell.
type fig18Arm struct {
	mode     sharing.Mode
	mix      string
	kernelMS int
}

// fig18Arms enumerates the comparison grid: every strategy against a
// small-kernel inference mix (5 ms requests, where grant overhead bites) and
// a large-kernel mix (50 ms, where it amortizes).
func fig18Arms() []fig18Arm {
	var arms []fig18Arm
	for _, mix := range []struct {
		name     string
		kernelMS int
	}{{"small-kernel", 5}, {"large-kernel", 50}} {
		for _, mode := range []sharing.Mode{sharing.ModeToken, sharing.ModeMPS, sharing.ModeReplica} {
			arms = append(arms, fig18Arm{mode: mode, mix: mix.name, kernelMS: mix.kernelMS})
		}
	}
	return arms
}

// workload generates the serving workload one arm replays at seed.
func (p fig18Params) workload(arm fig18Arm, seed int64) []workload.Job {
	return workload.Generate(workload.GeneratorConfig{
		Jobs:             p.jobs,
		MeanInterArrival: fig18InterArrival,
		DemandMean:       fig18DemandMean,
		JobDuration:      p.jobDuration,
		Mode:             string(arm.mode),
		MemShare:         workload.MemShareSmall,
		ReqKernelMS:      arm.kernelMS,
		Seed:             seed,
	})
}

// Fig18 runs the strategy comparison and reports per-arm throughput, mean
// stretch ((finish − arrival) / serving time — the tenant-visible slowdown)
// and the mean per-GPU Jain fairness index from the auditor windows. Every
// arm replays the identical job list (same seed, same arrivals, same
// demands); only the sharing strategy and kernel granularity differ, so the
// columns isolate the strategy's own cost.
func Fig18(s Scale, seed int64) (*metrics.Table, error) {
	p := fig18Runs[s]
	arms := fig18Arms()
	type armOut struct {
		completed int
		tput      float64
		stretch   float64
		jain      float64
	}
	outs, err := runIndexed(len(arms), func(i int) (armOut, error) {
		arm := arms[i]
		jobs := p.workload(arm, seed)
		res, err := RunSharing(SharingConfig{
			System: KubeShare, Nodes: p.nodes, GPUsPerNode: fig18GPUsPerNode,
			Jobs: jobs,
			// The node default matches the per-pod annotation, so both the
			// annotation path and the backend default are exercised.
			Devlib:    core.Config{Devlib: devlib.Config{Mode: arm.mode}},
			Telemetry: 2 * time.Second,
		})
		if err != nil {
			return armOut{}, err
		}
		if res.Failed > 0 {
			return armOut{}, fmt.Errorf("fig18 %s/%s: %d jobs failed", arm.mode, arm.mix, res.Failed)
		}
		return armOut{
			completed: res.Completed,
			tput:      res.ThroughputPerMin,
			stretch:   meanStretch(jobs, res.FinishTimes),
			jain:      meanJain(res.Telemetry.Auditor),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Figure 18: sharing-strategy comparison (same workload per arm)",
		"strategy", "mix", "kernel_ms", "completed", "throughput_jobs_min", "mean_stretch", "jain_mean")
	for i, arm := range arms {
		o := outs[i]
		tb.AddRow(string(arm.mode), arm.mix, arm.kernelMS, o.completed,
			fmt.Sprintf("%.2f", o.tput), fmt.Sprintf("%.3f", o.stretch),
			fmt.Sprintf("%.3f", o.jain))
	}
	return tb, nil
}

// meanStretch averages (finish − arrival) / serving-duration over completed
// jobs: 1.0 would be a job that finished the instant arrivals stopped; queue
// waits, grant handoffs and backlog drain all push it up.
func meanStretch(jobs []workload.Job, finish map[string]time.Duration) float64 {
	var sum float64
	var n int
	for _, j := range jobs {
		f, ok := finish[j.Name]
		if !ok || j.Duration <= 0 {
			continue
		}
		sum += float64(f-j.Arrival) / float64(j.Duration)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// meanJain averages the auditor's per-GPU Jain index over every window that
// observed an active tenant.
func meanJain(a *core.Auditor) float64 {
	var sum float64
	var n int
	for _, w := range a.Windows() {
		for _, j := range w.Jain {
			sum += j
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fig18MemBytes exercises the memory-quantity request mode: a sharePod
// asking for more bytes than any device holds is rejected at admission with
// a typed *core.ValidationError, while a byte-denominated workload sized so
// two tenants fill a device runs to completion with the MemoryFit filter
// packing by bytes (no over-placement, no OOM kills).
func Fig18MemBytes(s Scale, seed int64) (*metrics.Table, error) {
	p := fig18Runs[s]
	tb := metrics.NewTable("Figure 18 (memory-quantity mode): byte requests at admission and placement",
		"case", "jobs", "completed", "failed", "rejected_typed")

	// Admission: one byte over device capacity must be refused with the
	// typed error before anything is stored.
	env := sim.NewEnv()
	c, err := newCluster(env, 1, 1, false)
	if err != nil {
		return nil, err
	}
	if _, err := schedfw.Install(c, core.Config{}); err != nil {
		return nil, err
	}
	var refused error
	workload.Submit(env, c.API, 1, func(int) (time.Duration, api.Object) {
		return 0, &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: "over-mem"},
			Spec: core.SharePodSpec{
				GPURequest:  0.5,
				GPULimit:    1.0,
				GPUMemBytes: core.DeviceMemBytes + 1,
				Pod: api.PodSpec{Containers: []api.Container{{
					Name: "serve", Image: workload.ServeImage,
				}}},
			},
		}
	}, &refused)
	env.Run()
	rejectedTyped := 0
	var ve *core.ValidationError
	if errors.As(refused, &ve) {
		rejectedTyped = 1
	}
	tb.AddRow("oversubscribed-admission", 1, 0, 0, rejectedTyped)
	if rejectedTyped == 0 {
		return nil, fmt.Errorf("fig18: oversubscribed gpu_mem_bytes was not rejected with a typed ValidationError")
	}

	// Placement: 6 GiB tenants — two fit a 16 GiB device, a third does not,
	// so MemoryFit must spill the overflow to other devices and every job
	// still completes.
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs:             p.jobs / 2,
		MeanInterArrival: fig18InterArrival,
		DemandMean:       0.3,
		JobDuration:      p.jobDuration,
		MemBytes:         6 << 30,
		ReqKernelMS:      5,
		Seed:             seed,
	})
	res, err := RunSharing(SharingConfig{
		System: KubeShare, Nodes: p.nodes, GPUsPerNode: fig18GPUsPerNode,
		Jobs: jobs,
	})
	if err != nil {
		return nil, err
	}
	tb.AddRow("byte-workload-6gib", len(jobs), res.Completed, res.Failed, 0)
	if res.Failed > 0 || res.Completed != len(jobs) {
		return nil, fmt.Errorf("fig18: byte workload completed %d/%d, failed %d",
			res.Completed, len(jobs), res.Failed)
	}
	return tb, nil
}
