package sharing

import (
	"math/rand"
	"testing"
	"time"
)

// bruteBusy is the obviously-correct reference: clip every span ever
// recorded to [now-window, now] and sum, with no incremental state at all.
func bruteBusy(spans []span, window, now time.Duration) time.Duration {
	cut := now - window
	var busy time.Duration
	for _, sp := range spans {
		s, e := sp.start, sp.end
		if s < cut {
			s = cut
		}
		if e > now {
			e = now
		}
		if e > s {
			busy += e - s
		}
	}
	return busy
}

// TestUsageWindowMatchesBruteForce drives randomized span/query interleavings
// through the incremental ring and checks every Busy answer against the
// brute-force rescan of the full history. Span lengths are drawn so that
// window-boundary straddling, zero-length spans, overlapping spans, and
// queries landing inside a span all occur.
func TestUsageWindowMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := time.Duration(1+rng.Intn(50)) * time.Millisecond
		u := newUsageWindow(window)
		var history []span

		// start advances monotonically (AddSpan's contract); queries are
		// nondecreasing too, matching how the devlib consults the window.
		var start, lastQuery time.Duration
		for step := 0; step < 2000; step++ {
			switch rng.Intn(3) {
			case 0, 1: // record a span
				start += time.Duration(rng.Intn(int(window) / 2))
				length := time.Duration(rng.Intn(int(window)))
				if rng.Intn(10) == 0 {
					length = 0 // zero-length spans must be ignored
				}
				u.AddSpan(start, start+length)
				history = append(history, span{start, start + length})
			default: // query
				// Mostly at/after the record frontier, occasionally behind it
				// (inside a recorded span), never before the previous query.
				now := start + time.Duration(rng.Intn(int(window)))
				if rng.Intn(4) == 0 && start > window/4 {
					now = start - window/4
				}
				if now < lastQuery {
					now = lastQuery
				}
				lastQuery = now
				got := u.Busy(now)
				want := bruteBusy(history, window, now)
				if got != want {
					t.Fatalf("seed %d step %d: Busy(%v) = %v, brute force = %v (window %v, %d spans)",
						seed, step, now, got, want, window, len(history))
				}
			}
		}
	}
}

// BenchmarkUsageWindowRate measures the steady-state query cost with a busy
// producer: one span and one query per iteration, windowful of spans
// retained. The incremental sum makes this O(1); the pre-optimization
// implementation rescanned every retained span per query.
func BenchmarkUsageWindowRate(b *testing.B) {
	const window = 100 * time.Millisecond
	u := newUsageWindow(window)
	now := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ~50 spans retained in the window at any time.
		u.AddSpan(now, now+time.Millisecond)
		now += 2 * time.Millisecond
		_ = u.Rate(now)
	}
}
