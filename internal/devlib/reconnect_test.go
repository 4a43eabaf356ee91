package devlib

import (
	"errors"
	"testing"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube/backoff"
	"kubeshare/internal/sim"
)

// admitRecorder wraps a strategy and records, per outage, the instants of
// the frontend's Admit attempts from the first down error to the first
// success after it. acquireLease does nothing between two attempts but
// sleep the backoff delay, so consecutive differences are the delays.
type admitRecorder struct {
	sharing.Strategy
	env     *sim.Env
	cur     []time.Duration
	outages [][]time.Duration
}

func (a *admitRecorder) Admit(p *sim.Proc, id string) (sharing.Lease, error) {
	lease, err := a.Strategy.Admit(p, id)
	switch {
	case errors.Is(err, sharing.ErrDown):
		a.cur = append(a.cur, a.env.Now())
	case a.cur != nil:
		a.outages = append(a.outages, append(a.cur, a.env.Now()))
		a.cur = nil
	}
	return lease, err
}

// TestReconnectDelaysUnchangedByLazyBackoff: the reconnect backoff is built
// on the first down error of a lease acquisition rather than on every
// acquisition. That must be invisible to a chaos run — each outage still
// draws the name-seeded sequence from its start. Two outages under one live
// frontend must produce delay sequences equal to each other and to
// backoff.New("devlib/"+id, reconnectBase, reconnectCap)'s.
//
// The other two backoff.New call sites were audited for the eager shape
// this one had and are already first-failure-lazy:
// controller.Runner.retryDelay builds a key's backoff on its first failed
// reconcile, SharePodSetManager.replaceDelay on a set's first failed
// replacement round.
func TestReconnectDelaysUnchangedByLazyBackoff(t *testing.T) {
	const id = "tenant-a"
	r := newRig(Config{})
	rec := &admitRecorder{Strategy: r.strat, env: r.env}
	f, err := NewFrontendWith(cuda.Open(r.dev, id), rec, id, Share{Request: 0.5, Limit: 1, Memory: 0.5}, r.b.Config())
	if err != nil {
		t.Fatal(err)
	}
	kernels := 0
	app := r.env.Go(id, trainLoop(f, 10*time.Millisecond, 0, &kernels))
	for _, at := range []time.Duration{5 * time.Second, 15 * time.Second} {
		r.env.At(at, r.strat.Suspend)
		r.env.At(at+4*time.Second, r.strat.Resume)
	}
	r.env.RunUntil(25 * time.Second)
	app.Kill(nil)
	r.env.Run()

	if len(rec.outages) != 2 {
		t.Fatalf("recorded %d outages, want 2", len(rec.outages))
	}
	// Both outages are held to the one reference sequence, which also makes
	// them equal to each other over their common length.
	for i, attempts := range rec.outages {
		if len(attempts) < 5 {
			t.Fatalf("outage %d drew only %d delays; the test needs a longer outage", i, len(attempts)-1)
		}
		want := backoff.New("devlib/"+id, reconnectBase, reconnectCap)
		for j := 1; j < len(attempts); j++ {
			if got, w := attempts[j]-attempts[j-1], want.Next(); got != w {
				t.Fatalf("outage %d delay %d = %v, want %v", i, j, got, w)
			}
		}
	}
	if kernels == 0 || !r.strat.Registered(id) {
		t.Fatalf("frontend did not recover: %d kernels, registered=%v", kernels, r.strat.Registered(id))
	}
}
