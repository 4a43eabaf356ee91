package main

import (
	"os"
	"path/filepath"
	"testing"
)

// vet writes src as a throwaway .go file and returns checkFile's
// violation count.
func vet(t *testing.T, src string) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return checkFile(path)
}

// TestDetAllowExemptsLine: a banned selector is flagged, and the same
// selector on a line ending in //det:allow is not.
func TestDetAllowExemptsLine(t *testing.T) {
	const flagged = `package p

import "time"

func stamp() time.Time { return time.Now() }
`
	if got := vet(t, flagged); got != 1 {
		t.Fatalf("violations = %d, want 1", got)
	}
	const exempt = `package p

import "time"

func stamp() time.Time { return time.Now() } //det:allow injectable wall-clock default
`
	if got := vet(t, exempt); got != 0 {
		t.Fatalf("violations = %d, want 0", got)
	}
}
