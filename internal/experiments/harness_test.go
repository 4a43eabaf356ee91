package experiments

import (
	"strings"
	"testing"
	"time"

	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/workload"
)

// A submission the apiserver refuses comes back from RunSharing as an error
// — with the sampler running, so the run also has to stop rather than tick
// forever waiting for jobs that were never submitted.
func TestRunSharingReturnsSubmitError(t *testing.T) {
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
