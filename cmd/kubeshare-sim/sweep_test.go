package main

import (
	"flag"
	"io"
	"os"
	"testing"

	"kubeshare/internal/experiments"
)

var fullSweep = flag.Bool("full", false, "TestCLISweep: also run every experiment at -scale full")

// TestCLISweep runs every registry entry — what "all" names, plus latency —
// at quick scale (and again at full scale with -full): each must return a
// nil error and a non-empty table. The audit, trace and profile subcommands
// run through their functions and must return nil. What they print is
// discarded.
func TestCLISweep(t *testing.T) {
	scales := []experiments.Scale{experiments.Quick}
	if *fullSweep {
		scales = append(scales, experiments.Full)
	}
	for _, s := range scales {
		for _, e := range experiments.Registry {
			tb, err := e.Run(io.Discard, s, 1)
			if err != nil {
				t.Errorf("%s (%v): %v", e.Name, s, err)
			} else if len(tb.Rows) == 0 {
				t.Errorf("%s (%v): empty table", e.Name, s)
			}
		}
	}
	// The subcommands print to standard output.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = stdout
		devnull.Close()
	})
	for _, s := range scales {
		if err := runAudit(1, s, false); err != nil {
			t.Errorf("audit (%v): %v", s, err)
		}
	}
	if err := runTrace("SharePod/job-000", 1, ""); err != nil {
		t.Errorf("trace: %v", err)
	}
	if err := runProfile(nil, 1, ""); err != nil {
		t.Errorf("profile: %v", err)
	}
}
