package experiments

import (
	"strings"
	"testing"

	"kubeshare/internal/obs"
)

// TestAlertDeterminismGolden runs the Fig 9 workload with the SLO engine
// attached and asserts the full alert trajectory — every firing/resolve
// transition event plus the engine's final state table — is byte-identical
// to the recorded golden.
func TestAlertDeterminismGolden(t *testing.T) {
	withCanary(t)
	cfg := Fig9Config{}.withDefaults()
	res, err := RunSharing(SharingConfig{
		System:          KubeShare,
		Nodes:           cfg.Nodes,
		GPUsPerNode:     cfg.GPUsPerNode,
		Jobs:            fig9Jobs(cfg),
		Telemetry:       cfg.Sample,
		ExportTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("--- slo events ---\n")
	var slo []obs.EventRecord
	for _, e := range res.Events {
		if e.Source == "slo" {
			slo = append(slo, e)
		}
	}
	obs.FormatEvents(&b, slo)
	b.WriteString("--- final states ---\n")
	obs.FormatAlerts(&b, res.Telemetry.Alerts.States())
	if len(slo) == 0 {
		t.Fatal("expected SLO transition events under the Fig 9 sharing workload")
	}
	checkGolden(t, "alerts.golden", b.String())
}
