package schedfw

import (
	"fmt"
	"testing"
)

// TestNewGPUIDMatchesPrintf: vGPU IDs are vgpu-%04d, zero-padded to four
// digits and unpadded past them.
func TestNewGPUIDMatchesPrintf(t *testing.T) {
	var s Scheduler
	for _, n := range []int{0, 8, 98, 998, 9998, 99998} {
		s.nextID = n
		if got, want := s.newGPUID(), fmt.Sprintf("vgpu-%04d", n+1); got != want {
			t.Fatalf("newGPUID %q, want %q", got, want)
		}
	}
}
