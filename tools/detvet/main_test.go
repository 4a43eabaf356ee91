package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vetModule writes files (path from the module root -> source) as a module
// named kubeshare, runs detvet over its internal/ tree and returns the
// violations by file (path from the module root), each less its
// "file:line:col: " prefix.
func vetModule(t *testing.T, files map[string]string) map[string][]string {
	t.Helper()
	root, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files["go.mod"] = "module kubeshare\n\ngo 1.23\n"
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := vet(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	byFile := map[string][]string{}
	for _, v := range bad {
		parts := strings.SplitN(strings.TrimPrefix(v, root+string(filepath.Separator)), ":", 4)
		byFile[filepath.ToSlash(parts[0])] = append(byFile[filepath.ToSlash(parts[0])], strings.TrimSpace(parts[3]))
	}
	return byFile
}

// TestDetAllowExemptsLine: a banned selector is flagged, and the same
// selector on a line ending in //det:allow is not.
func TestDetAllowExemptsLine(t *testing.T) {
	got := vetModule(t, map[string]string{
		"internal/p/flagged.go": "package p\n\nimport \"time\"\n\nfunc stamp() time.Time { return time.Now() }\n",
		"internal/p/exempt.go":  "package p\n\nimport \"time\"\n\nfunc stamp2() time.Time { return time.Now() } //det:allow injectable wall-clock default\n",
	})
	if n := len(got["internal/p/flagged.go"]); n != 1 {
		t.Fatalf("flagged.go: %d violations, want 1: %v", n, got)
	}
	if n := len(got["internal/p/exempt.go"]); n != 0 {
		t.Fatalf("exempt.go: %d violations, want 0: %v", n, got)
	}
}

// TestTestOracleImportFlagged: program code importing the test-only
// Algorithm 1 reference is a violation.
func TestTestOracleImportFlagged(t *testing.T) {
	got := vetModule(t, map[string]string{
		"internal/core/coretest/coretest.go": "package coretest\n\nvar PaperPolicy int\n",
		"internal/p/p.go":                    "package p\n\nimport \"kubeshare/internal/core/coretest\"\n\nvar _ = coretest.PaperPolicy\n",
	})
	if n := len(got["internal/p/p.go"]); n != 1 {
		t.Fatalf("violations = %d, want 1: %v", n, got)
	}
}

// registry stands in for the telemetry registry: detvet knows it by its
// method names.
const registry = `
type registry struct{}

func (registry) Counter(name string) int                    { return 0 }
func (registry) CounterVec(name string, keys ...string) int { return 0 }
`

// TestRulesFire writes one module in which each case's file re-introduces
// one violation of a rule, or an exempt look-alike, runs detvet over it
// once, and checks that each file drew exactly the violations it expects.
func TestRulesFire(t *testing.T) {
	cases := []struct {
		path, src string
		want      []string // substrings of the file's violations, in order
	}{
		{"internal/wallclock/a.go", "package wallclock\n\nimport \"time\"\n\nfunc stamp() time.Time { return time.Now() }\n",
			[]string{"time.Now forbidden"}},
		{"internal/renamed/a.go", "package renamed\n\nimport clock \"time\"\n\nfunc stamp() clock.Time { return clock.Now() }\n",
			[]string{"time.Now forbidden"}},
		{"internal/stdout/a.go", "package stdout\n\nimport \"fmt\"\n\nfunc say() { fmt.Println(\"hi\") }\n",
			[]string{"fmt.Println forbidden"}},
		{"internal/globalrand/a.go", "package globalrand\n\nimport \"math/rand\"\n\nfunc roll() int { return rand.Int() }\n",
			[]string{`import "math/rand" forbidden:`}},
		{"internal/oracle/a.go", "package oracle\n\nimport \"kubeshare/internal/core/coretest\"\n\nvar _ = coretest.PaperPolicy\n",
			[]string{`import "kubeshare/internal/core/coretest" forbidden:`}},
		{"internal/kube/store/a.go", "package store\n\nimport (\n\t\"os\"\n\t\"time\"\n)\n\nvar _, _ = os.Getpid, time.Second\n",
			[]string{`import "os" forbidden in kube/store`, `import "time" forbidden in kube/store`}},
		{"internal/devlib/sharing/a.go", "package sharing\n\nimport _ \"kubeshare/internal/kube/apiserver\"\n",
			[]string{`import "kubeshare/internal/kube/apiserver" forbidden in devlib/sharing`}},
		{"internal/badname/a.go", "package badname\n" + registry + "\nvar _ = registry{}.Counter(\"Sched-Bad-Name\")\n",
			[]string{`metric name "Sched-Bad-Name" must be kubeshare_-prefixed`}},
		{"internal/badkey/a.go", "package badkey\n" + registry + "\nvar _ = registry{}.CounterVec(\"kubeshare_jobs_total\", \"free_form_reason\")\n",
			[]string{`label key "free_form_reason" on "kubeshare_jobs_total" is outside the bounded vocabulary`}},
		{"internal/nokeys/a.go", "package nokeys\n" + registry + "\nvar _ = registry{}.CounterVec(\"kubeshare_jobs_total\")\n",
			[]string{`labeled family "kubeshare_jobs_total" declares no label keys`}},
		// A name held in a constant is checked like a literal, whichever
		// package declares the constant.
		{"internal/constname/a.go", "package constname\n" + registry + "\nconst m = \"Sched-Bad-Name\"\n\nvar _ = registry{}.Counter(m)\n\nvar _ = registry{}.CounterVec(m, \"free_form_reason\")\n",
			[]string{`metric name "Sched-Bad-Name"`, `metric name "Sched-Bad-Name"`, `label key "free_form_reason"`}},
		{"internal/foreignconst/a.go", "package foreignconst\n\nimport \"kubeshare/internal/metricnames\"\n" + registry + "\nvar _ = registry{}.Counter(metricnames.Bad)\n",
			[]string{`metric name "Sched-Bad-Name"`}},
		{"internal/allowed/a.go", "package allowed\n\nimport \"time\"\n\nfunc stamp() time.Time { return time.Now() } //det:allow times the host\n",
			nil},
		{"internal/shadow/a.go", "package shadow\n\nimport \"time\"\n\ntype clock struct{}\n\nfunc (clock) Now() time.Duration { return 0 }\n\nfunc stamp() time.Duration {\n\ttime := clock{}\n\treturn time.Now()\n}\n",
			nil},
		// The census: Helper only its own test calls, Side nothing calls;
		// Used has a caller in cmd/, Area implements Shape, and seam.Fixture
		// is called from another package's test.
		{"internal/census/census.go", "package census\n\nfunc Helper() {}\n\nfunc Used() {}\n\ntype Shape interface{ Area() int }\n\ntype Square struct{}\n\nfunc (Square) Area() int { return 1 }\n\nfunc (Square) Side() int { return 1 }\n",
			[]string{"exported kubeshare/internal/census.Helper is named only by its package's tests", "exported kubeshare/internal/census.Square.Side"}},
		{"internal/seam/seam.go", "package seam\n\nfunc Fixture() {}\n", nil},
		// The root package: Shown is named only by a checked Example, a
		// caller; Tested only by a test and Unchecked only by an Example
		// without an output comment, which go test compiles but never runs.
		{"shown.go", "package kubeshare\n\nfunc Shown() {}\n", nil},
		{"tested.go", "package kubeshare\n\nfunc Tested() {}\n\nfunc Unchecked() {}\n",
			[]string{"exported kubeshare.Tested is named only by its package's tests", "exported kubeshare.Unchecked is named only"}},
	}
	files := map[string]string{
		"internal/core/coretest/coretest.go":   "package coretest\n\nvar PaperPolicy int\n",
		"internal/kube/apiserver/apiserver.go": "package apiserver\n",
		"internal/metricnames/names.go":        "package metricnames\n\nconst Bad = \"Sched-Bad-Name\"\n",
		"internal/census/census_test.go":       "package census\n\nimport (\n\t\"testing\"\n\n\t\"kubeshare/internal/seam\"\n)\n\nfunc TestHelper(t *testing.T) {\n\tHelper()\n\tseam.Fixture()\n}\n",
		"cmd/caller/main.go":                   "package main\n\nimport \"kubeshare/internal/census\"\n\nvar _ census.Shape = census.Square{}\n\nfunc main() { census.Used() }\n",
		"example_test.go": "package kubeshare_test\n\nimport (\n\t\"testing\"\n\n\t\"kubeshare\"\n)\n\n" +
			"func ExampleShown() {\n\tkubeshare.Shown()\n\t// Output:\n}\n\n" +
			"func ExampleUnchecked() { kubeshare.Unchecked() }\n\n" +
			"func TestTested(t *testing.T) { kubeshare.Tested() }\n",
	}
	for _, c := range cases {
		files[c.path] = c.src
	}
	got := vetModule(t, files)
	for _, c := range cases {
		v := got[c.path]
		ok := len(v) == len(c.want)
		for i := 0; ok && i < len(v); i++ {
			ok = strings.Contains(v[i], c.want[i])
		}
		if !ok {
			t.Errorf("%s: violations %q, want %q", c.path, v, c.want)
		}
		delete(got, c.path)
	}
	if len(got) > 0 {
		t.Errorf("violations in files no case expects: %q", got)
	}
}
