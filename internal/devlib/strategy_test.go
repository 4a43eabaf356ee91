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

// TestSwapInterleavedWithSuspendResume crashes the token daemon mid-run
// under memory over-commitment: queued acquires fail over to the reconnect
// path, the broker's residency bookkeeping survives the outage (it lives
// with the device, not the daemon's client table), and both tenants keep
// making progress — and keep swapping — after the resume.
func TestSwapInterleavedWithSuspendResume(t *testing.T) {
	r := swapRig(1000)
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	na, nb := 0, 0
	r.env.Go("a", func(p *sim.Proc) {
		fa.MemAlloc(p, 700)
		trainLoop(fa, 5*time.Millisecond, time.Millisecond, &na)(p)
	})
	r.env.Go("b", func(p *sim.Proc) {
		fb.MemAlloc(p, 700)
		trainLoop(fb, 5*time.Millisecond, time.Millisecond, &nb)(p)
	})
	var atCrash, swappedAtCrash = [2]int{}, int64(0)
	r.env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(time.Second)
		r.strat.Suspend()
		atCrash = [2]int{na, nb}
		swappedAtCrash = r.strat.Stats().SwappedBytes
		p.Sleep(50 * time.Millisecond)
		r.strat.Resume()
	})
	r.env.RunUntil(3 * time.Second)
	if na <= atCrash[0] || nb <= atCrash[1] {
		t.Fatalf("progress stalled after resume: %v then %d/%d", atCrash, na, nb)
	}
	if r.strat.Stats().SwappedBytes <= swappedAtCrash {
		t.Fatalf("swap traffic stalled after resume: %d then %d",
			swappedAtCrash, r.strat.Stats().SwappedBytes)
	}
	// Both working sets stayed intact across the crash: each EnsureResident
	// still moves the full 700-byte set, never a partial one.
	if r.strat.Stats().SwappedBytes%700 != 0 {
		t.Fatalf("swapped %d bytes, want a multiple of the 700-byte sets", r.strat.Stats().SwappedBytes)
	}
}

// TestSwapInterleavedWithUnregister closes one over-committed tenant mid-run:
// its residency is dropped without transfer cost and the survivor stops
// paying swap traffic entirely — its set now fits alone.
func TestSwapInterleavedWithUnregister(t *testing.T) {
	r := swapRig(1000)
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	nb := 0
	r.env.Go("a", func(p *sim.Proc) {
		fa.MemAlloc(p, 700)
		for i := 0; i < 50; i++ {
			if err := fa.LaunchKernel(p, 5*time.Millisecond); err != nil {
				t.Errorf("a: %v", err)
				return
			}
		}
		fa.Close(p)
	})
	r.env.Go("b", func(p *sim.Proc) {
		fb.MemAlloc(p, 700)
		trainLoop(fb, 5*time.Millisecond, time.Millisecond, &nb)(p)
	})
	var swappedAfterClose int64
	r.env.Go("probe", func(p *sim.Proc) {
		p.Sleep(2 * time.Second) // well past a's 50 kernels
		if r.token().ResidentBytes("a") != 0 {
			t.Errorf("a still resident after Close: %d bytes", r.token().ResidentBytes("a"))
		}
		swappedAfterClose = r.strat.Stats().SwappedBytes
		p.Sleep(time.Second)
		if got := r.strat.Stats().SwappedBytes; got != swappedAfterClose {
			t.Errorf("swap traffic continued after sole tenant fits: %d then %d",
				swappedAfterClose, got)
		}
	})
	r.env.RunUntil(4 * time.Second)
	if nb == 0 {
		t.Fatal("survivor made no progress")
	}
}
