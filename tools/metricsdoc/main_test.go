package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestScanResolvesConstantsPerPackage: two packages each register a family
// through a constant of the same name but a different value. Each family is
// found once, under the value its own package declares.
func TestScanResolvesConstantsPerPackage(t *testing.T) {
	const registry = "\ntype registry struct{}\n\nfunc (registry) Counter(name string) int { return 0 }\n"
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":          "module kubeshare\n\ngo 1.23\n",
		"internal/a/a.go": "package a\n" + registry + "\nconst MetricJobs = \"kubeshare_a_jobs_total\"\n\nvar _ = registry{}.Counter(MetricJobs)\n",
		"internal/b/b.go": "package b\n" + registry + "\nconst MetricJobs = \"kubeshare_b_jobs_total\"\n\nvar _ = registry{}.Counter(MetricJobs)\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	metrics, err := scan(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name)
	}
	if want := []string{"kubeshare_a_jobs_total", "kubeshare_b_jobs_total"}; !slices.Equal(names, want) {
		t.Fatalf("scanned families %q, want %q", names, want)
	}
}
