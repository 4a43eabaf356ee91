package core

import (
	"fmt"
	"testing"
)

// TestPodNamesMatchPrintf: bound and holder pod names read as the fmt
// formats they replace rendered them, at every incarnation.
func TestPodNamesMatchPrintf(t *testing.T) {
	for _, n := range []int{1, 9, 10, 99, 100, 12345} {
		if got, want := boundPodName("train-3", n), fmt.Sprintf("sharepod-%s-r%d", "train-3", n); got != want {
			t.Fatalf("boundPodName %q, want %q", got, want)
		}
		if got, want := holderPodName("vgpu-0001", n), fmt.Sprintf("%s-holder-r%d", "vgpu-0001", n); got != want {
			t.Fatalf("holderPodName %q, want %q", got, want)
		}
	}
	if got := boundPodName("train-3", 0); got != fmt.Sprintf("sharepod-%s", "train-3") {
		t.Fatalf("boundPodName %q", got)
	}
}
