package backoff

import (
	"testing"
	"time"
)

func TestBoundsAndGrowth(t *testing.T) {
	b := New("bounds", 100*time.Millisecond, 5*time.Second)
	prev := time.Duration(0)
	hitCap := false
	for i := 0; i < 50; i++ {
		lo := 100 * time.Millisecond
		hi := 3 * prev
		if prev == 0 {
			hi = 3 * lo
		}
		if hi > 5*time.Second {
			hi = 5 * time.Second
		}
		d := b.Next()
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d, lo, hi)
		}
		if d == 5*time.Second || hi == 5*time.Second {
			hitCap = true
		}
		prev = d
	}
	if !hitCap {
		t.Fatal("50 attempts never reached the cap's range")
	}
}

// TestDeterministicPerName: same name, same sequence; different names
// decorrelate.
func TestDeterministicPerName(t *testing.T) {
	a1, a2 := New("runner-a", 100*time.Millisecond, 10*time.Second), New("runner-a", 100*time.Millisecond, 10*time.Second)
	bdiff := New("runner-b", 100*time.Millisecond, 10*time.Second)
	same, diff := true, true
	for i := 0; i < 20; i++ {
		x := a1.Next()
		if x != a2.Next() {
			same = false
		}
		if x != bdiff.Next() {
			diff = false
		}
	}
	if !same {
		t.Fatal("identical names produced different sequences")
	}
	if diff {
		t.Fatal("different names produced identical sequences — seeding is not name-sensitive")
	}
}

func TestDefaultsAndDegenerateCap(t *testing.T) {
	b := NewSeeded(1, 0, 0)
	if d := b.Next(); d < 100*time.Millisecond {
		t.Fatalf("zero base did not default to 100ms: %v", d)
	}
	// cap == base pins every delay exactly at base.
	c := NewSeeded(1, time.Second, time.Second)
	for i := 0; i < 5; i++ {
		if d := c.Next(); d != time.Second {
			t.Fatalf("cap==base attempt %d: %v, want exactly 1s", i, d)
		}
	}
}
