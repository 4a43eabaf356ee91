package experiments

import (
	"strings"
	"testing"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/workload"
)

// telemetryDump runs a small seeded KubeShare workload and renders its
// complete telemetry — every span, every event, every metric — as one text
// blob. The whole pipeline is virtual-clock native, so the blob must be
// byte-identical run-to-run for a fixed seed, including under -race with
// GOMAXPROCS>1 (the runs of the test execute concurrently through
// runIndexed).
func telemetryDump() (string, error) {
	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs: 8, MeanInterArrival: 2 * time.Second,
		DemandMean: 0.35, DemandVar: 1,
		JobDuration: 10 * time.Second, Seed: 11,
	})
	res, err := RunSharing(SharingConfig{
		System: KubeShare, Nodes: 1, GPUsPerNode: 2,
		Jobs: jobs, ExportTelemetry: true,
		// Crash/warm-recover the apiserver mid-workload: the restart markers
		// (APIServerRestarted), the WAL/checkpoint counters and the
		// per-consumer relist counters must all land byte-identically in the
		// golden.
		RestartAPIServerAt: 9 * time.Second,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("--- spans ---\n")
	obs.FormatSpans(&b, res.Spans)
	b.WriteString("--- events ---\n")
	obs.FormatEvents(&b, res.Events)
	b.WriteString("--- metrics ---\n")
	res.Obs.Format(&b)
	return b.String(), nil
}

// TestTraceDeterminismGolden runs the telemetry dump twice, concurrently,
// and asserts byte-identical output, then matches the recorded golden — the
// guarantee that a seeded run yields one reproducible causal trace. Both
// runs carry the store's mutation canary, which must not move a byte of the
// golden (it adds no proc, no watch and no API request) and must find every
// published snapshot — across the mid-run restart too — as it was published.
func TestTraceDeterminismGolden(t *testing.T) {
	withCanary(t)
	dumps, err := runIndexed(2, func(int) (string, error) { return telemetryDump() })
	if err != nil {
		t.Fatal(err)
	}
	if dumps[1] != dumps[0] {
		t.Fatal("telemetry diverged between two runs of the same seed")
	}
	checkGolden(t, "obs_trace.golden", dumps[0])
}
