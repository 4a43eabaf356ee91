package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/chaos"
	"kubeshare/internal/metrics"
)

// fig14Params sizes Figure 14 (an extension beyond the paper: the original
// evaluation assumes a healthy cluster): the cluster (fig14GPUsPerNode GPUs
// a node), the serving workload, and the fault-rate multipliers over the
// chaos soak's baseline schedule. Intensity 0 is the fault-free control
// row; the workload is identical across rows (same seed), so the rows
// isolate the effect of faults.
type fig14Params struct {
	nodes, jobs int
	jobDuration time.Duration
	intensities []float64
}

var fig14Runs = [...]fig14Params{
	Quick: {nodes: 2, jobs: 12, jobDuration: 10 * time.Second, intensities: []float64{0, 1, 2}},
	Full:  {nodes: 4, jobs: 32, jobDuration: 20 * time.Second, intensities: []float64{0, 0.5, 1, 2}},
}

const fig14GPUsPerNode = 2

// Fig14 measures service availability as fault intensity rises: each row
// runs the same seeded serving workload under a scaled chaos schedule (node
// crashes, vGPU holder kills, device faults, watch drops) and reports how
// many jobs completed, how much recovery machinery fired, and how long the
// cluster took to converge. Every row must also pass the full quiescence
// invariants — a leaked device share or wedged sharePod fails the
// experiment, not just a table cell.
func Fig14(s Scale, seed int64) (*metrics.Table, error) {
	p := fig14Runs[s]
	tb := metrics.NewTable("Figure 14: availability under injected faults",
		"intensity", "faults", "succeeded", "failed", "availability",
		"restarts", "requeues", "vgpu_recoveries", "watch_resumes", "quiesce_s")
	results, err := runIndexed(len(p.intensities), func(i int) (chaos.SoakResult, error) {
		intensity := p.intensities[i]
		scfg := chaos.SoakConfig{
			Seed:        seed,
			Nodes:       p.nodes,
			GPUsPerNode: fig14GPUsPerNode,
			Jobs:        p.jobs,
			JobDuration: p.jobDuration,
		}
		if intensity == 0 {
			scfg.NoFaults = true
		} else {
			base := chaos.SoakConfig{}.WithDefaults().Faults
			scfg.Faults = chaos.Config{
				NodeCrashMean:           scaleMean(base.NodeCrashMean, intensity),
				NodeOutageMean:          base.NodeOutageMean,
				HolderKillMean:          scaleMean(base.HolderKillMean, intensity),
				DeviceFaultMean:         scaleMean(base.DeviceFaultMean, intensity),
				DeviceOutageMean:        base.DeviceOutageMean,
				WatchDropMean:           scaleMean(base.WatchDropMean, intensity),
				APIRestartMean:          scaleMean(base.APIRestartMean, intensity),
				APIRestartTornTailEvery: base.APIRestartTornTailEvery,
			}
		}
		res, err := chaos.Soak(scfg)
		if err != nil {
			return res, err
		}
		for _, v := range res.Violations {
			err = fmt.Errorf("intensity %v: invariant violated: %w", intensity, v)
			break
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		total := res.Succeeded + res.Failed
		availability := 0.0
		if total > 0 {
			availability = float64(res.Succeeded) / float64(total)
		}
		tb.AddRow(p.intensities[i], res.Faults.Total(), res.Succeeded, res.Failed,
			availability, res.Restarts, int(res.Requeues), int(res.Recoveries),
			res.Resumes, res.Elapsed.Seconds())
	}
	return tb, nil
}

// scaleMean divides a baseline mean interval by the intensity multiplier:
// intensity 2 fires faults twice as often.
func scaleMean(mean time.Duration, intensity float64) time.Duration {
	return time.Duration(float64(mean) / intensity)
}
