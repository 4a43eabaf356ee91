package gpusim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"kubeshare/internal/sim"
)

func newDev(env *sim.Env) *Device {
	return NewDevice(env, Config{Index: 0, NodeName: "n0"})
}

func TestUUIDStableAndUnique(t *testing.T) {
	env := sim.NewEnv()
	a := NewDevice(env, Config{Index: 0, NodeName: "n0"})
	b := NewDevice(env, Config{Index: 0, NodeName: "n0"})
	c := NewDevice(env, Config{Index: 1, NodeName: "n0"})
	d := NewDevice(env, Config{Index: 0, NodeName: "n1"})
	if a.UUID() != b.UUID() {
		t.Fatal("same (node,index) must give same UUID")
	}
	if a.UUID() == c.UUID() || a.UUID() == d.UUID() {
		t.Fatal("distinct devices share a UUID")
	}
}

func TestSingleKernelExactDuration(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	ctx := dev.OpenContext("c1")
	var done time.Duration
	env.Go("app", func(p *sim.Proc) {
		ctx.Launch(p, 100*time.Millisecond)
		done = env.Now()
	})
	env.Run()
	if done != 100*time.Millisecond {
		t.Fatalf("kernel finished at %v, want 100ms", done)
	}
}

func TestProcessorSharingTwoKernels(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	c1 := dev.OpenContext("c1")
	c2 := dev.OpenContext("c2")
	var t1, t2 time.Duration
	env.Go("a", func(p *sim.Proc) { c1.Launch(p, 100*time.Millisecond); t1 = env.Now() })
	env.Go("b", func(p *sim.Proc) { c2.Launch(p, 100*time.Millisecond); t2 = env.Now() })
	env.Run()
	// Both share the device: each runs at half rate, finishing at 200ms.
	if t1 != 200*time.Millisecond || t2 != 200*time.Millisecond {
		t.Fatalf("finish times %v %v, want 200ms each", t1, t2)
	}
}

func TestProcessorSharingStaggeredArrival(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	c1 := dev.OpenContext("c1")
	c2 := dev.OpenContext("c2")
	var t1, t2 time.Duration
	env.Go("a", func(p *sim.Proc) { c1.Launch(p, 100*time.Millisecond); t1 = env.Now() })
	env.Go("b", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		c2.Launch(p, 100*time.Millisecond)
		t2 = env.Now()
	})
	env.Run()
	// a runs alone 0-50ms (50ms work done), then shares: remaining 50ms at
	// half rate → finishes at 150ms. b then runs alone: did 50ms of work
	// during sharing, 50ms left alone → finishes at 200ms.
	if t1 != 150*time.Millisecond {
		t.Fatalf("t1 = %v, want 150ms", t1)
	}
	if t2 != 200*time.Millisecond {
		t.Fatalf("t2 = %v, want 200ms", t2)
	}
}

func TestBusyTimeAndIdleGaps(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	ctx := dev.OpenContext("c1")
	env.Go("a", func(p *sim.Proc) {
		ctx.Launch(p, 30*time.Millisecond)
		p.Sleep(70 * time.Millisecond)
		ctx.Launch(p, 30*time.Millisecond)
	})
	env.Run()
	if got := dev.BusyTime(); got != 60*time.Millisecond {
		t.Fatalf("BusyTime = %v, want 60ms", got)
	}
}

func TestBusyTimeCountsSharingOnce(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	c1 := dev.OpenContext("c1")
	c2 := dev.OpenContext("c2")
	env.Go("a", func(p *sim.Proc) { c1.Launch(p, 50*time.Millisecond) })
	env.Go("b", func(p *sim.Proc) { c2.Launch(p, 50*time.Millisecond) })
	env.Run()
	// Two 50ms kernels shared: wall time 100ms, device busy 100ms (not 200).
	if got := dev.BusyTime(); got != 100*time.Millisecond {
		t.Fatalf("BusyTime = %v, want 100ms", got)
	}
}

func TestDeviceTimeAttribution(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	c1 := dev.OpenContext("c1")
	c2 := dev.OpenContext("c2")
	env.Go("a", func(p *sim.Proc) { c1.Launch(p, 100*time.Millisecond) })
	env.Go("b", func(p *sim.Proc) { c2.Launch(p, 50*time.Millisecond) })
	env.Run()
	// Shared until b finishes (b needs 50ms work at half rate → t=100ms;
	// both got 50ms device time). a then runs alone 50ms more.
	if got := c2.DeviceTime(); got != 50*time.Millisecond {
		t.Fatalf("c2 device time %v, want 50ms", got)
	}
	if got := c1.DeviceTime(); got != 100*time.Millisecond {
		t.Fatalf("c1 device time %v, want 100ms", got)
	}
}

func TestZeroWorkKernelCompletesImmediately(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	ctx := dev.OpenContext("c1")
	env.Go("a", func(p *sim.Proc) {
		ctx.Launch(p, 0)
		if env.Now() != 0 {
			t.Errorf("zero-work kernel took %v", env.Now())
		}
	})
	env.Run()
}

func TestMemoryAllocFree(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, Config{NodeName: "n", MemoryBytes: 1000})
	ctx := dev.OpenContext("c1")
	if err := ctx.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Alloc(500); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want OOM", err)
	}
	if err := ctx.Free(200); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Alloc(500); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if dev.MemoryUsed() != 900 || ctx.MemUsed() != 900 {
		t.Fatalf("used dev=%d ctx=%d", dev.MemoryUsed(), ctx.MemUsed())
	}
}

func TestMemoryIsolationBetweenContexts(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, Config{NodeName: "n", MemoryBytes: 1000})
	c1 := dev.OpenContext("c1")
	c2 := dev.OpenContext("c2")
	if err := c1.Alloc(700); err != nil {
		t.Fatal(err)
	}
	if err := c2.Alloc(400); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("physical capacity not shared across contexts")
	}
	if err := c2.Free(1); err == nil {
		t.Fatal("free of unallocated memory must error")
	}
}

func TestContextCloseReleasesMemory(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, Config{NodeName: "n", MemoryBytes: 1000})
	c1 := dev.OpenContext("c1")
	if err := c1.Alloc(800); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if dev.MemoryUsed() != 0 {
		t.Fatalf("MemoryUsed = %d after close", dev.MemoryUsed())
	}
	if err := c1.Alloc(1); err == nil {
		t.Fatal("alloc on closed context must error")
	}
	if dev.ActiveContexts() != 0 {
		t.Fatal("context not detached")
	}
}

func TestCopyDuration(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, Config{NodeName: "n"})
	if got := dev.CopyDuration(CopyBandwidth); got != time.Second {
		t.Fatalf("CopyDuration = %v, want 1s", got)
	}
	if dev.CopyDuration(0) != 0 || dev.CopyDuration(-5) != 0 {
		t.Fatal("non-positive copy must be 0")
	}
}

// Property: total device time attributed to contexts equals device busy time
// (work conservation under processor sharing).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(works []uint8) bool {
		env := sim.NewEnv()
		dev := newDev(env)
		var ctxs []*Context
		for i, w := range works {
			if i >= 6 {
				break
			}
			ctx := dev.OpenContext("c")
			ctxs = append(ctxs, ctx)
			work := time.Duration(w%100+1) * time.Millisecond
			start := time.Duration(w/16) * 10 * time.Millisecond
			env.At(start, func() {
				env.Go("app", func(p *sim.Proc) { ctx.Launch(p, work) })
			})
		}
		env.Run()
		var attributed time.Duration
		for _, c := range ctxs {
			attributed += c.DeviceTime()
		}
		diff := attributed - dev.BusyTime()
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a kernel's wall-clock time is at least its work and at most
// work × (max concurrent kernels).
func TestPropertySharingSlowdownBounds(t *testing.T) {
	f := func(n uint8) bool {
		k := int(n%5) + 1
		env := sim.NewEnv()
		dev := newDev(env)
		work := 100 * time.Millisecond
		ok := true
		for i := 0; i < k; i++ {
			ctx := dev.OpenContext("c")
			env.Go("app", func(p *sim.Proc) {
				start := env.Now()
				ctx.Launch(p, work)
				wall := env.Now() - start
				if wall < work || wall > time.Duration(k)*work+time.Microsecond {
					ok = false
				}
			})
		}
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSynchronousLaunchAllocs pins the steady-state cost of Context.Launch:
// two contexts launching back-to-back kernels that overlap under processor
// sharing (so every launch and every retirement re-arms the completion
// timer) allocate nothing once the event slabs are warm — the completion
// event, the kernel struct and the timer callback are all reused.
func TestSynchronousLaunchAllocs(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	launches := 0
	var procs []*sim.Proc
	for i, work := range []time.Duration{3 * time.Millisecond, 5 * time.Millisecond} {
		ctx := dev.OpenContext(string(rune('a' + i)))
		procs = append(procs, env.Go(ctx.Owner(), func(p *sim.Proc) {
			for ctx.Launch(p, work) == nil {
				launches++
			}
		}))
	}
	defer func() {
		for _, p := range procs {
			p.Kill(nil)
		}
		env.Run()
	}()
	run := func(n int) {
		for target := launches + n; launches < target; {
			if !env.Step() {
				t.Fatalf("simulation drained after %d launches", launches)
			}
		}
	}
	run(100) // warm-up
	const n = 4000
	if allocs := testing.AllocsPerRun(1, func() { run(n) }); allocs != 0 {
		t.Fatalf("%v allocations over %d synchronous launches, want 0", allocs, n)
	}
}
