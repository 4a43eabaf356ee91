package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestHostProfilesWritten: the -cpuprofile/-memprofile wrapper leaves a
// non-empty pprof file for each flag once the wrapped command returns, and
// an unwritable CPU path is an error before anything runs.
func TestHostProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run("fig6", false, 1); err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (err=%v)", filepath.Base(path), err)
		}
	}
	if _, err := startProfiles(filepath.Join(dir, "no-such-dir", "cpu.pprof"), ""); err == nil {
		t.Error("startProfiles accepted an unwritable -cpuprofile path")
	}
}
