package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current kernel")

// The two scenarios the determinism suite locks down: Fig 6 exercises the
// devlib token policy end to end on one GPU, Fig 8a exercises the whole
// cluster stack (scheduler, kubelets, devlib, workload generator) under both
// systems. Both must be byte-identical run-to-run AND identical to the
// tables recorded from the pre-optimization kernel.
func fig6Golden(t *testing.T) string {
	t.Helper()
	res, err := Fig6(Fig6Config{Stagger: 60 * time.Second, SampleEvery: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return res.Table.String()
}

func fig8Golden(t *testing.T) string {
	t.Helper()
	tb, err := Fig8a(Fig8Config{
		Jobs: 30, Nodes: 2, GPUsPerNode: 4, JobDuration: 20 * time.Second,
	}, []float64{1, 4})
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
