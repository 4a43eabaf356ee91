package main

import (
	"flag"
	"os"
	"testing"
)

var fullSweep = flag.Bool("full", false, "TestCLISweep: also run every experiment at -scale full")

// TestCLISweep runs every experiment "all" names, plus latency, through the
// command's own dispatch at quick scale (and again at full scale with
// -full): each must return a nil error and a non-empty table. The trace,
// profile and audit subcommands run through their functions and must
// return nil. What the commands print goes to /dev/null.
func TestCLISweep(t *testing.T) {
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
	scales := []bool{false}
	if *fullSweep {
		scales = append(scales, true)
	}
	for _, full := range scales {
		for _, name := range append(allExperiments, "latency") {
			tb, err := run(name, full, 1)
			if err != nil {
				t.Errorf("%s (full=%v): %v", name, full, err)
			} else if len(tb.Rows) == 0 {
				t.Errorf("%s (full=%v): empty table", name, full)
			}
		}
		if err := runAudit(1, full, false); err != nil {
			t.Errorf("audit (full=%v): %v", full, err)
		}
	}
	if err := runTrace("SharePod/job-000", 1, ""); err != nil {
		t.Errorf("trace: %v", err)
	}
	if err := runProfile(nil, 1, ""); err != nil {
		t.Errorf("profile: %v", err)
	}
}
