package experiments

import (
	"strings"
	"testing"
	"time"

	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/workload"
)

// withCanary installs the store's mutation canary on every API server the
// experiments this test runs build (through the onServer seam, so from
// runIndexed's workers too); each is checked when the test ends. The canary
// adds no proc, watch or API request, so goldens hold with it installed.
func withCanary(t *testing.T) {
	onServer = func(srv *apiserver.Server) { storetest.Install(t, srv.Store()) }
	t.Cleanup(func() { onServer = nil })
}

// A submission the apiserver refuses comes back from RunSharing as an error
// — with the sampler running, so the run also has to stop rather than tick
// forever waiting for jobs that were never submitted.
func TestRunSharingReturnsSubmitError(t *testing.T) {
	withCanary(t)
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 3, MeanInterArrival: time.Second,
		DemandMean: 0.3, DemandVar: 1,
		JobDuration: 2 * time.Second, Seed: 5,
	})
	jobs[2].Name = jobs[0].Name // the store refuses the duplicate
	for _, sys := range []System{KubeShare, Kubernetes} {
		_, err := RunSharing(SharingConfig{
			System: sys, Nodes: 1, GPUsPerNode: 2, Jobs: jobs,
			Sample: time.Second, Telemetry: time.Second,
		})
		if err == nil || !strings.Contains(err.Error(), "submit "+jobs[0].Name) || !apiserver.IsExists(err) {
			t.Fatalf("%s: err = %v, want the wrapped already-exists submit error", sys, err)
		}
	}
}

// An apiserver restart closes every watch stream; the extender baseline must
// re-subscribe like the other control loops and finish the workload, under
// the same config KubeShare finishes. (On raw watches its two watch procs
// returned at the restart, nothing kicked the cycle again, and the run came
// back with a quarter of the jobs done and a nil error.)
func TestExtenderSurvivesAPIServerRestart(t *testing.T) {
	withCanary(t)
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 20, MeanInterArrival: time.Second,
		DemandMean: 0.3, DemandVar: 1,
		JobDuration: 5 * time.Second, Seed: 5,
	})
	for _, sys := range []System{Extender, KubeShare} {
		res, err := RunSharing(SharingConfig{
			System: sys, Nodes: 2, GPUsPerNode: 2, Jobs: jobs,
			RestartAPIServerAt: 10 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Completed != len(jobs) {
			t.Fatalf("%s: completed %d of %d jobs across the restart", sys, res.Completed, len(jobs))
		}
	}
}

// A run whose simulation drains with jobs still waiting reports them, rather
// than returning a short result: here nothing can ever place the jobs, since
// the cluster has no GPU.
func TestRunSharingReportsStuckJobs(t *testing.T) {
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 3, MeanInterArrival: time.Second,
		DemandMean: 0.3, DemandVar: 1,
		JobDuration: 2 * time.Second, Seed: 5,
	})
	for _, sys := range []System{KubeShare, Extender, Kubernetes} {
		_, err := RunSharing(SharingConfig{System: sys, Nodes: 1, GPUsPerNode: 0, Jobs: jobs})
		if err == nil || !strings.Contains(err.Error(), "3 of 3 jobs not terminal") {
			t.Fatalf("%s: err = %v, want the stuck jobs counted", sys, err)
		}
	}
}
