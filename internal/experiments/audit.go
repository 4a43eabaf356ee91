package experiments

import "kubeshare/internal/metrics"

// AuditResult carries the auditor's deterministic report tables plus the
// run's alert outcome.
type AuditResult struct {
	// Shares is the per-(GPU, tenant) token accounting table.
	Shares *metrics.Table
	// Fairness is the per-GPU Jain-index table.
	Fairness *metrics.Table
	// AlertsFired counts SLO (rule, child) pairs that fired at least once,
	// measured by Warning events from the "slo" source.
	AlertsFired int
}

// Audit runs the Fig 9 workload under KubeShare with the fairness auditor
// sampling at Fig 9's cadence and returns the per-tenant accounting and
// per-GPU Jain tables. The output is byte-identical across runs at the
// same seed (golden-tested).
func Audit(s Scale, seed int64) (*AuditResult, error) {
	p := fig9Runs[s]
	res, err := RunSharing(SharingConfig{
		System:          KubeShare,
		Nodes:           p.nodes,
		GPUsPerNode:     p.gpusPerNode,
		Jobs:            p.workload(seed),
		Telemetry:       fig9Sample,
		ExportTelemetry: true,
	})
	if err != nil {
		return nil, err
	}
	shares, fairness := res.Telemetry.Auditor.Report()
	out := &AuditResult{Shares: shares, Fairness: fairness}
	for _, e := range res.Events {
		if e.Source == "slo" && e.Type == "Warning" {
			out.AlertsFired++
		}
	}
	return out, nil
}
