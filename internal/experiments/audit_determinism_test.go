package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// renderAudit serializes an audit result the way `kubeshare-sim audit`
// prints it.
func renderAudit(res *AuditResult) string {
	var b strings.Builder
	res.Shares.Render(&b)
	b.WriteByte('\n')
	res.Fairness.Render(&b)
	fmt.Fprintf(&b, "\nslo alerts fired: %d\n", res.AlertsFired)
	return b.String()
}

// TestAuditDeterminismGolden runs the fairness audit twice at the same seed
// and asserts the report is byte-identical both across runs and against the
// recorded golden — the `audit` acceptance criterion.
func TestAuditDeterminismGolden(t *testing.T) {
	withCanary(t)
	first, err := Audit(AuditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Audit(AuditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := renderAudit(first)
	if again := renderAudit(second); got != again {
		t.Fatalf("audit report not deterministic across runs:\n--- first ---\n%s\n--- second ---\n%s", got, again)
	}
	if first.AlertsFired == 0 {
		t.Fatal("expected at least one SLO alert to fire under the Fig 9 sharing workload")
	}
	checkGolden(t, "audit_report.golden", got)
}
