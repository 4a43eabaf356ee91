package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kubeshare/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current kernel")

// The two quick runs the determinism suite pins to goldens: Fig 6 exercises
// the devlib token policy end to end on one GPU, Fig 8a exercises the whole
// cluster stack (scheduler, kubelets, devlib, workload generator) under both
// systems. Both must be byte-identical run-to-run AND identical to the
// recorded tables.
func fig6Golden(t *testing.T) string {
	t.Helper()
	res, err := Fig6(Quick)
	if err != nil {
		t.Fatal(err)
	}
	return res.Table.String()
}

func fig8Golden(t *testing.T) string {
	t.Helper()
	tb, err := Fig8a(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tb.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s diverged from the recorded pre-change golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestFig6DeterminismGolden runs Fig 6 twice with the same seed and asserts
// byte-identical metrics.Table output, then matches the recorded golden.
func TestFig6DeterminismGolden(t *testing.T) {
	withCanary(t)
	first := fig6Golden(t)
	second := fig6Golden(t)
	if first != second {
		t.Fatalf("Fig6 not deterministic across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	checkGolden(t, "fig6_table.golden", first)
}

// TestFig8DeterminismGolden does the same for the full-stack Fig 8a sweep.
func TestFig8DeterminismGolden(t *testing.T) {
	withCanary(t)
	first := fig8Golden(t)
	second := fig8Golden(t)
	if first != second {
		t.Fatalf("Fig8a not deterministic across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	checkGolden(t, "fig8a_table.golden", first)
}

// TestQuickRunsDeterministic makes every registry entry's quick run twice
// and requires byte-identical output: what the entry writes beside its table
// and the table itself, but for the host-clock columns the entry declares.
// The first run is the one the claims share.
func TestQuickRunsDeterministic(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.Name, func(t *testing.T) {
			withCanary(t)
			first := quickOf(t, e.Name).out
			if second, _ := quickRun(t, e); first != second {
				t.Fatalf("%s quick run not deterministic:\n--- first ---\n%s\n--- second ---\n%s", e.Name, first, second)
			}
		})
	}
}

// quickRun renders an entry's quick run at seed 1 with its host-clock
// columns blanked, and returns the table as run beside it.
func quickRun(t *testing.T, e Experiment) (string, *metrics.Table) {
	t.Helper()
	var b strings.Builder
	tb, err := e.Run(&b, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := *tb
	run.Rows = make([][]string, len(tb.Rows))
	for i, row := range tb.Rows {
		run.Rows[i] = slices.Clone(row)
	}
	for _, col := range e.HostTime {
		i := slices.Index(tb.Headers, col)
		if i < 0 {
			t.Fatalf("%s has no column %s", e.Name, col)
		}
		for _, row := range tb.Rows {
			row[i] = ""
		}
	}
	tb.Render(&b)
	return b.String(), &run
}
