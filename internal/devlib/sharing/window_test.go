package sharing

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestUsageWindowBasic(t *testing.T) {
	u := newUsageWindow(10 * time.Second)
	u.AddSpan(0, 2*time.Second)
	u.AddSpan(4*time.Second, 6*time.Second)
	if got := u.Rate(10 * time.Second); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("rate = %v, want 0.4", got)
	}
}

func TestUsageWindowEviction(t *testing.T) {
	u := newUsageWindow(10 * time.Second)
	u.AddSpan(0, 10*time.Second)
	// At t=25s the span is entirely outside [15s,25s].
	if got := u.Rate(25 * time.Second); got != 0 {
		t.Fatalf("rate = %v, want 0", got)
	}
	if u.n != 0 {
		t.Fatal("evicted spans not freed")
	}
}

func TestUsageWindowStraddlingSpan(t *testing.T) {
	u := newUsageWindow(10 * time.Second)
	u.AddSpan(0, 8*time.Second)
	// Window [5s,15s] overlaps [0,8s] by 3s.
	if got := u.Rate(15 * time.Second); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("rate = %v, want 0.3", got)
	}
}

func TestUsageWindowFutureClamp(t *testing.T) {
	u := newUsageWindow(10 * time.Second)
	u.AddSpan(0, 20*time.Second) // span extends past "now"
	if got := u.Rate(10 * time.Second); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("rate = %v, want 1.0", got)
	}
}

func TestUsageWindowZeroLengthSpanIgnored(t *testing.T) {
	u := newUsageWindow(time.Second)
	u.AddSpan(time.Second, time.Second)
	if u.Rate(2*time.Second) != 0 {
		t.Fatal("zero-length span counted")
	}
}

// Property: rate is always within [0,1] for disjoint in-order spans.
func TestPropertyUsageWindowRateBounded(t *testing.T) {
	f := func(gaps []uint8) bool {
		u := newUsageWindow(5 * time.Second)
		var cursor time.Duration
		for _, g := range gaps {
			busy := time.Duration(g%50) * 100 * time.Millisecond
			idle := time.Duration(g/50) * 100 * time.Millisecond
			u.AddSpan(cursor, cursor+busy)
			cursor += busy + idle
			r := u.Rate(cursor)
			if r < 0 || r > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
