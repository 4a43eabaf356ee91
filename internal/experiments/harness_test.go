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
