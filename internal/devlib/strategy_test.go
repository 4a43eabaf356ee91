package devlib

import (
	"testing"
	"time"

	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/sim"
)

// TestMPSFrontendsOverlap drives two full-duty clients through frontends on
// the MPS strategy: with ungated leases and no token turns, both must stay
// on the device simultaneously and the device must be busy essentially the
// whole run.
func TestMPSFrontendsOverlap(t *testing.T) {
	r := newRigOn(gpusim.Config{NodeName: "n"}, Config{Mode: sharing.ModeMPS}, sharing.ModeMPS)
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 0.5, Memory: 0.3})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 0.5, Memory: 0.3})
	na, nb := 0, 0
	r.env.Go("a", trainLoop(fa, 10*time.Millisecond, 0, &na))
	r.env.Go("b", trainLoop(fb, 10*time.Millisecond, 0, &nb))
	r.env.RunUntil(10 * time.Second)
	util := r.dev.BusyTime().Seconds() / 10.0
	if util < 0.99 {
		t.Fatalf("utilization %.3f, want ≈1 (no handoff gaps under overlap)", util)
	}
	// Equal weights: both make the same progress, each at half rate
	// (10ms kernels at 50% → 20ms each, ~500 in 10s).
	if na < 450 || nb < 450 || na != nb {
		t.Fatalf("kernel counts %d/%d, want equal ≈500", na, nb)
	}
	if s := r.strat.Stats(); s.Holder != "" {
		t.Fatalf("holder %q, want none under concurrent admission", s.Holder)
	}
}

// TestReplicaFrontendsRotate drives three clients on a two-slot replica
// strategy: the pair sharing a slot time-slice it while the lone client on
// the other slot runs unimpeded alongside them.
func TestReplicaFrontendsRotate(t *testing.T) {
	r := newRigOn(gpusim.Config{NodeName: "n"}, Config{Mode: sharing.ModeReplica}, sharing.ModeReplica)
	counts := [3]int{}
	for i, id := range []string{"a", "b", "c"} {
		f := r.addClient(t, id, Share{Request: 0.3, Limit: 1, Memory: 0.2})
		r.env.Go(id, trainLoop(f, 10*time.Millisecond, 0, &counts[i]))
	}
	r.env.RunUntil(10 * time.Second)
	// a and c share slot 0 (round-robin registration); b owns slot 1. All
	// three must progress — FIFO turns starve nobody.
	for i, n := range counts {
		if n < 50 {
			t.Fatalf("client %d made %d kernels, want ≥50 (starved?)", i, n)
		}
	}
	// b never waits for a turn, so it outpaces the slot-sharing pair.
	if counts[1] <= counts[0] || counts[1] <= counts[2] {
		t.Fatalf("counts %v: lone-slot client must outpace slot-sharers", counts)
	}
}

// TestTokenTenantsProgressAcrossSuspendResume crashes the token daemon
// mid-run under two tenants whose memory shares fit the device together:
// queued acquires fail over to the reconnect path, and both tenants keep
// making progress after the resume.
func TestTokenTenantsProgressAcrossSuspendResume(t *testing.T) {
	r := newRigOn(gpusim.Config{NodeName: "n", MemoryBytes: 1000}, Config{}, sharing.ModeToken)
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.4})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.4})
	na, nb := 0, 0
	r.env.Go("a", func(p *sim.Proc) {
		if _, err := fa.MemAlloc(p, 400); err != nil {
			t.Errorf("a: %v", err)
		}
		trainLoop(fa, 5*time.Millisecond, time.Millisecond, &na)(p)
	})
	r.env.Go("b", func(p *sim.Proc) {
		if _, err := fb.MemAlloc(p, 400); err != nil {
			t.Errorf("b: %v", err)
		}
		trainLoop(fb, 5*time.Millisecond, time.Millisecond, &nb)(p)
	})
	var atCrash [2]int
	r.env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(time.Second)
		r.strat.Suspend()
		atCrash = [2]int{na, nb}
		p.Sleep(50 * time.Millisecond)
		r.strat.Resume()
	})
	r.env.RunUntil(3 * time.Second)
	if atCrash[0] == 0 || atCrash[1] == 0 {
		t.Fatalf("a tenant made no progress before the crash: %v", atCrash)
	}
	if na <= atCrash[0] || nb <= atCrash[1] {
		t.Fatalf("progress stalled after resume: %v then %d/%d", atCrash, na, nb)
	}
}
