package sharing

import "time"

// usageWindow tracks how much "busy time" an entity accumulated within a
// trailing window of virtual time — the accounting structure behind the
// paper's sliding-window GPU usage rate (§4.5). Intervals are recorded as
// [start, end) busy spans; Rate(now) returns busy/window over
// [now-window, now].
//
// Spans live in a ring buffer and the sum of their lengths is maintained
// incrementally, so Busy/Rate cost O(1) amortized for the disjoint spans
// real callers record (each query pays only eviction, already charged to the
// span that is dropped, plus a pro-rata correction for the prefix of spans
// straddling the window start — at most one when spans are disjoint).
type usageWindow struct {
	window time.Duration
	spans  []span // ring buffer, capacity a power of two
	head   int
	n      int
	busy   time.Duration // sum of full lengths of retained spans
	maxEnd time.Duration // latest end ever recorded; guards the fast path
}

type span struct{ start, end time.Duration }

// newUsageWindow returns a tracker over the given trailing window width,
// which must be positive (NewToken defaults it).
func newUsageWindow(window time.Duration) *usageWindow {
	return &usageWindow{window: window}
}

// reset empties the window, keeping its ring.
func (u *usageWindow) reset() {
	clear(u.spans)
	u.head, u.n, u.busy, u.maxEnd = 0, 0, 0, 0
}

func (u *usageWindow) at(i int) *span { return &u.spans[(u.head+i)&(len(u.spans)-1)] }

// AddSpan records a busy interval [start, end). Spans must be appended in
// nondecreasing start order; overlapping or zero-length spans are tolerated
// (overlaps are counted twice — callers record disjoint token-hold spans).
func (u *usageWindow) AddSpan(start, end time.Duration) {
	if end <= start {
		return
	}
	if u.n == len(u.spans) {
		size := len(u.spans) * 2
		if size == 0 {
			size = 16
		}
		grown := make([]span, size)
		for i := 0; i < u.n; i++ {
			grown[i] = *u.at(i)
		}
		u.spans = grown
		u.head = 0
	}
	u.spans[(u.head+u.n)&(len(u.spans)-1)] = span{start, end}
	u.n++
	u.busy += end - start
	if end > u.maxEnd {
		u.maxEnd = end
	}
}

// evict drops spans that ended before the window start, deducting their full
// length from the running busy sum.
func (u *usageWindow) evict(now time.Duration) {
	cut := now - u.window
	for u.n > 0 {
		sp := u.at(0)
		if sp.end > cut {
			return
		}
		u.busy -= sp.end - sp.start
		*sp = span{}
		u.head = (u.head + 1) & (len(u.spans) - 1)
		u.n--
	}
}

// Busy returns the busy time accumulated within [now-window, now]. Spans
// straddling the window start are counted pro rata.
func (u *usageWindow) Busy(now time.Duration) time.Duration {
	u.evict(now)
	if u.maxEnd > now {
		// A span reaches past the query point (only possible when querying
		// the past): take the exact-clipping slow path.
		return u.rescan(now)
	}
	cut := now - u.window
	busy := u.busy
	// Starts are nondecreasing, so spans straddling the window start form a
	// prefix; deduct the part of each that slid out of the window. The
	// deduction is clamped to the span length: a short span nested behind a
	// longer one can lie entirely before the cut yet stay retained, because
	// eviction stops at the first span whose end is inside the window.
	for i := 0; i < u.n; i++ {
		sp := u.at(i)
		if sp.start >= cut {
			break
		}
		out := cut - sp.start
		if rest := sp.end - sp.start; out > rest {
			out = rest
		}
		busy -= out
	}
	return busy
}

// rescan is the reference computation: clip every retained span to
// [now-window, now] and sum.
func (u *usageWindow) rescan(now time.Duration) time.Duration {
	cut := now - u.window
	var busy time.Duration
	for i := 0; i < u.n; i++ {
		sp := u.at(i)
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

// Rate returns the busy fraction of the window at time now, in [0, 1] for
// disjoint spans.
func (u *usageWindow) Rate(now time.Duration) float64 {
	return float64(u.Busy(now)) / float64(u.window)
}
