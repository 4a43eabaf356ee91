package devlib

import (
	"errors"
	"testing"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/sim"
)

// swapRig builds a small-memory device with an over-commit-enabled backend.
func swapRig(memBytes int64, bw int64) *rig {
	return newRigOn(gpusim.Config{NodeName: "n", MemoryBytes: memBytes},
		Config{MemOvercommit: true, SwapBandwidth: bw}, sharing.ModeToken)
}

// token is the rig's strategy as the concrete token policy, for the swap
// broker's residency accessors.
func (r *rig) token() *sharing.Token { return r.strat.(*sharing.Token) }

func TestOvercommitAllocBeyondPhysical(t *testing.T) {
	// Two tenants, each allocating 70% of device memory: impossible
	// physically, fine virtually.
	r := swapRig(1000, 1<<40)
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	r.env.Go("t", func(p *sim.Proc) {
		if _, err := fa.MemAlloc(p, 700); err != nil {
			t.Errorf("a alloc: %v", err)
		}
		if _, err := fb.MemAlloc(p, 700); err != nil {
			t.Errorf("b alloc: %v", err)
		}
		// Per-container share still enforced.
		if _, err := fa.MemAlloc(p, 1); !errors.Is(err, cuda.ErrOutOfMemory) {
			t.Errorf("overshare alloc err = %v", err)
		}
	})
	r.env.Run()
	if fa.MemUsed() != 700 || fb.MemUsed() != 700 {
		t.Fatalf("virtual usage %d/%d", fa.MemUsed(), fb.MemUsed())
	}
}

func TestSwapInOutOnHandoff(t *testing.T) {
	r := swapRig(1000, 1<<40)
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	r.env.Go("a", func(p *sim.Proc) {
		fa.MemAlloc(p, 700)
		for i := 0; i < 40; i++ {
			if err := fa.LaunchKernel(p, 5*time.Millisecond); err != nil {
				t.Errorf("a: %v", err)
				return
			}
		}
	})
	r.env.Go("b", func(p *sim.Proc) {
		fb.MemAlloc(p, 700)
		for i := 0; i < 40; i++ {
			if err := fb.LaunchKernel(p, 5*time.Millisecond); err != nil {
				t.Errorf("b: %v", err)
				return
			}
		}
	})
	r.env.Run()
	// Both working sets can never be co-resident (1400 > 1000): every
	// alternation swaps.
	if r.strat.Stats().SwappedBytes == 0 {
		t.Fatal("no swapping occurred despite over-commitment")
	}
	if fa.MemUsed() != 700 || fb.MemUsed() != 700 {
		t.Fatal("virtual usage corrupted")
	}
}

func TestNoSwapWhenSetsFit(t *testing.T) {
	r := swapRig(1000, 1<<40)
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.4})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.4})
	r.env.Go("a", func(p *sim.Proc) {
		fa.MemAlloc(p, 400)
		for i := 0; i < 20; i++ {
			fa.LaunchKernel(p, 5*time.Millisecond)
		}
	})
	r.env.Go("b", func(p *sim.Proc) {
		fb.MemAlloc(p, 400)
		for i := 0; i < 20; i++ {
			fb.LaunchKernel(p, 5*time.Millisecond)
		}
	})
	r.env.Run()
	// Both sets fit (800 ≤ 1000): each is swapped in once, never out.
	if got := r.strat.Stats().SwappedBytes; got != 800 {
		t.Fatalf("swapped %d bytes, want 800 (one initial load each)", got)
	}
}

func TestSwapCostSlowsSharing(t *testing.T) {
	// Same workload with fitting vs over-committed sets: the over-committed
	// run must be slower by the transfer time.
	run := func(allocBytes int64) time.Duration {
		r := swapRig(1<<30, 1<<30) // 1 GiB device, 1 GiB/s swap
		fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.9})
		fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.9})
		for _, f := range []*Frontend{fa, fb} {
			f := f
			r.env.Go(f.clientID, func(p *sim.Proc) {
				f.MemAlloc(p, allocBytes)
				for i := 0; i < 10; i++ {
					f.LaunchKernel(p, 10*time.Millisecond)
				}
			})
		}
		r.env.Run()
		return r.env.Now()
	}
	fit := run(256 << 20)    // 2×256 MiB fit in 1 GiB
	thrash := run(768 << 20) // 2×768 MiB cannot co-reside
	if thrash < 2*fit {
		t.Fatalf("over-commit run %v vs fitting %v; swap cost missing", thrash, fit)
	}
}

func TestFreeReleasesVirtualBytes(t *testing.T) {
	r := swapRig(1000, 1<<40)
	f := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.5})
	r.env.Go("t", func(p *sim.Proc) {
		ptr, err := f.MemAlloc(p, 500)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if err := f.MemFree(p, ptr); err != nil {
			t.Errorf("free: %v", err)
		}
		if f.MemUsed() != 0 {
			t.Errorf("MemUsed = %d", f.MemUsed())
		}
		if _, err := f.MemAlloc(p, 500); err != nil {
			t.Errorf("re-alloc after free: %v", err)
		}
		if err := f.MemFree(p, cuda.Ptr(0xbad)); err == nil {
			t.Error("freeing unknown virtual pointer succeeded")
		}
	})
	r.env.Run()
}

func TestWorkingSetLargerThanDeviceRejected(t *testing.T) {
	r := swapRig(1000, 1<<40)
	f := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 1})
	r.env.Go("t", func(p *sim.Proc) {
		// gpu_mem share allows it, but a single working set can never
		// exceed the physical device.
		if _, err := f.MemAlloc(p, 1000); err != nil {
			t.Errorf("alloc at capacity: %v", err)
		}
	})
	r.env.Run()
	if err := r.token().SetVirtualUsage("a", 2000); err == nil {
		t.Fatal("working set beyond device capacity accepted")
	}
}

func TestUnregisterDropsResidency(t *testing.T) {
	r := swapRig(1000, 1<<40)
	f := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.7})
	r.env.Go("t", func(p *sim.Proc) {
		f.MemAlloc(p, 700)
		f.LaunchKernel(p, time.Millisecond) // becomes resident
		if r.token().ResidentBytes("a") != 700 {
			t.Errorf("resident = %d", r.token().ResidentBytes("a"))
		}
		f.Close(p)
		if r.token().ResidentBytes("a") != 0 {
			t.Error("residency survived close")
		}
	})
	r.env.Run()
}
