package devlib

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/sim"
)

// TestPropertyGuaranteesUnderRandomShares: for any set of clients whose
// gpu_requests sum to ≤ 1, every backlogged (full-duty) client achieves at
// least its request and never exceeds its limit by more than one quota of
// window share.
func TestPropertyGuaranteesUnderRandomShares(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 4 {
			raw = raw[:4]
		}
		// Derive requests that sum ≤ 1.
		total := 0
		for _, v := range raw {
			total += int(v%50) + 5
		}
		var shares []Share
		for _, v := range raw {
			req := float64(int(v%50)+5) / float64(total)
			if total < 100 {
				req = float64(int(v%50)+5) / 100.0
			}
			lim := math.Min(1, req*2)
			shares = append(shares, Share{Request: req, Limit: lim, Memory: 0.2})
		}
		r := newRig(Config{})
		for i, s := range shares {
			fr, err := NewFrontendWith(cuda.Open(r.dev, fmt.Sprint(i)), r.strat, fmt.Sprint(i), s, r.b.Config())
			if err != nil {
				return false
			}
			r.env.Go(fmt.Sprint(i), func(p *sim.Proc) {
				for !p.Killed() {
					if err := fr.LaunchKernel(p, 8*time.Millisecond); err != nil {
						return
					}
				}
			})
		}
		r.env.RunUntil(40 * time.Second)
		quotaShare := float64(DefaultQuota) / float64(DefaultWindow)
		ok := true
		for i, s := range shares {
			u := r.strat.UsageRate(fmt.Sprint(i))
			if u < s.Request-0.08 {
				ok = false // guarantee violated
			}
			if u > s.Limit+2*quotaShare+0.02 {
				ok = false // limit violated
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHoldSpansDisjoint: the token is never held by two clients at
// once — total hold time across clients can't exceed elapsed time.
func TestPropertyHoldSpansDisjoint(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%3) + 2
		r := newRig(Config{})
		for i := 0; i < n; i++ {
			fr, err := NewFrontendWith(cuda.Open(r.dev, fmt.Sprint(i)), r.strat, fmt.Sprint(i), Share{Request: 1.0 / float64(n), Limit: 1, Memory: 0.1}, r.b.Config())
			if err != nil {
				return false
			}
			r.env.Go(fmt.Sprint(i), func(p *sim.Proc) {
				for !p.Killed() {
					if err := fr.LaunchKernel(p, time.Duration(3+i)*time.Millisecond); err != nil {
						return
					}
				}
			})
		}
		horizon := 20 * time.Second
		r.env.RunUntil(horizon)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.strat.UsageRate(fmt.Sprint(i))
		}
		// Window share can at most be 1 (plus small kernel-overrun slack).
		return sum <= 1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
