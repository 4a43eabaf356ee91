// Package backoff is the one retry-delay policy every control loop shares:
// capped decorrelated jitter, deterministically seeded from the consumer's
// name. It replaces the three ad-hoc implementations that had grown in the
// controller runner, the SharePodSet replacement path and the devlib
// token-manager reconnect — same failure, same name, same seed, same delay
// sequence on every run.
//
// The policy is AWS-style decorrelated jitter: each delay is drawn
// uniformly from [base, 3·prev] and capped, so consecutive delays grow
// roughly geometrically while synchronized failers spread out instead of
// thundering back in lockstep. Delays come off a seeded simrand stream, so
// they are virtual-clock deterministic — a property plain exponential
// jitter implementations kept re-deriving, each slightly differently.
package backoff

import (
	"hash/fnv"
	"time"

	"kubeshare/internal/simrand"
)

// Backoff produces one deterministic delay sequence. Not goroutine-safe;
// each retrying key or connection owns its own Backoff.
type Backoff struct {
	base time.Duration
	cap  time.Duration
	rng  *simrand.Source
	prev time.Duration
}

// New returns a backoff seeded from name. base is the first delay's lower
// bound; delays never exceed cap. base <= 0 defaults to 100ms; cap below
// base is raised to base.
func New(name string, base, cap time.Duration) *Backoff {
	h := fnv.New64a()
	h.Write([]byte(name))
	return NewSeeded(int64(h.Sum64()), base, cap)
}

// NewSeeded is New with an explicit seed — for callers that already manage
// seed derivation (forked substreams, per-run seeds).
func NewSeeded(seed int64, base, cap time.Duration) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, rng: simrand.New(seed)}
}

// Next returns the delay to wait before the upcoming retry and advances the
// sequence: uniform in [base, 3·prev], capped, where prev is the previous
// delay (base on the first call).
func (b *Backoff) Next() time.Duration {
	prev := b.prev
	if prev == 0 {
		prev = b.base
	}
	hi := 3 * prev
	if hi > b.cap {
		hi = b.cap
	}
	d := b.base
	if hi > b.base {
		d = b.base + time.Duration(b.rng.Float64()*float64(hi-b.base))
	}
	b.prev = d
	return d
}
