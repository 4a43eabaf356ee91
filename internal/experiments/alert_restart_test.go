package experiments

import (
	"strings"
	"testing"
	"time"

	"kubeshare/internal/obs"
)

// TestAlertEngineAcrossAPIServerRestart crash/restarts the apiserver in
// the middle of the Fig 9 sharing workload with the SLO engine attached.
// The engine samples metrics, not watch streams, so its pending/firing
// state must ride straight through the restart: no rule may emit a
// resolve-then-refire flap in the restart instant, and the whole
// trajectory — transitions plus final states — is pinned by a golden.
func TestAlertEngineAcrossAPIServerRestart(t *testing.T) {
	withCanary(t)
	cfg := Fig9Config{}.withDefaults()
	res, err := RunSharing(SharingConfig{
		System:          KubeShare,
		Nodes:           cfg.Nodes,
		GPUsPerNode:     cfg.GPUsPerNode,
		Jobs:            fig9Jobs(cfg),
		Telemetry:       cfg.Sample,
		ExportTelemetry: true,
		// Restart while the sharing pressure is up — mid-workload, when
		// rules are pending or firing.
		RestartAPIServerAt: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var restartAt time.Duration
	for _, e := range res.Events {
		if e.Reason == "APIServerRestarted" {
			restartAt = e.Time
		}
	}
	if restartAt == 0 {
		t.Fatal("no APIServerRestarted marker in the event log")
	}
	var slo []obs.EventRecord
	lastByRule := map[string]obs.EventRecord{}
	for _, e := range res.Events {
		if e.Source != "slo" {
			continue
		}
		slo = append(slo, e)
		// A flap is a resolve immediately followed by a re-fire (or the
		// reverse) of the same rule in the restart instant: the engine's
		// state would have been lost and rebuilt from scratch.
		if prev, ok := lastByRule[e.Name]; ok &&
			e.Time == restartAt && prev.Time == restartAt && prev.Type != e.Type {
			t.Errorf("rule %s flapped %s->%s at the restart instant %v",
				e.Name, prev.Reason, e.Reason, restartAt)
		}
		lastByRule[e.Name] = e
	}
	if len(slo) == 0 {
		t.Fatal("expected SLO transition events under the Fig 9 sharing workload")
	}
	var b strings.Builder
	b.WriteString("--- slo events ---\n")
	obs.FormatEvents(&b, slo)
	b.WriteString("--- final states ---\n")
	obs.FormatAlerts(&b, res.Telemetry.Alerts.States())
	checkGolden(t, "alerts_restart.golden", b.String())
}
