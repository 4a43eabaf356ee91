package cuda

import (
	"errors"
	"testing"
	"time"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/sim"
)

func newDriver(env *sim.Env, mem int64) *Driver {
	dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n", MemoryBytes: mem})
	return Open(dev, "c1")
}

func TestMemAllocFreeRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	d := newDriver(env, 1000)
	env.Go("app", func(p *sim.Proc) {
		ptr, err := d.MemAlloc(p, 400)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if d.MemUsed() != 400 {
			t.Errorf("MemUsed = %d", d.MemUsed())
		}
		if err := d.MemFree(p, ptr); err != nil {
			t.Errorf("free: %v", err)
		}
		if d.MemUsed() != 0 {
			t.Errorf("MemUsed after free = %d", d.MemUsed())
		}
	})
	env.Run()
}

func TestMemAllocOOM(t *testing.T) {
	env := sim.NewEnv()
	d := newDriver(env, 100)
	env.Go("app", func(p *sim.Proc) {
		if _, err := d.MemAlloc(p, 101); !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("err = %v, want OOM", err)
		}
	})
	env.Run()
}

func TestMemAllocInvalidSize(t *testing.T) {
	env := sim.NewEnv()
	d := newDriver(env, 100)
	env.Go("app", func(p *sim.Proc) {
		if _, err := d.MemAlloc(p, 0); err == nil {
			t.Error("zero-size alloc must error")
		}
		if _, err := d.MemAlloc(p, -4); err == nil {
			t.Error("negative alloc must error")
		}
	})
	env.Run()
}

func TestMemFreeUnknownPtr(t *testing.T) {
	env := sim.NewEnv()
	d := newDriver(env, 100)
	env.Go("app", func(p *sim.Proc) {
		if err := d.MemFree(p, Ptr(0xdead)); err == nil {
			t.Error("freeing unknown pointer must error")
		}
	})
	env.Run()
}

func TestDistinctPointers(t *testing.T) {
	env := sim.NewEnv()
	d := newDriver(env, 1000)
	env.Go("app", func(p *sim.Proc) {
		a, _ := d.MemAlloc(p, 100)
		b, _ := d.MemAlloc(p, 100)
		if a == b {
			t.Error("allocations share a pointer")
		}
	})
	env.Run()
}

func TestLaunchKernelBlocksForWork(t *testing.T) {
	env := sim.NewEnv()
	d := newDriver(env, 1000)
	env.Go("app", func(p *sim.Proc) {
		if err := d.LaunchKernel(p, 42*time.Millisecond); err != nil {
			t.Errorf("launch: %v", err)
		}
		if env.Now() != 42*time.Millisecond {
			t.Errorf("returned at %v", env.Now())
		}
	})
	env.Run()
}

func TestMemcpyTakesPCIeTime(t *testing.T) {
	env := sim.NewEnv()
	dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n"})
	d := Open(dev, "c1")
	env.Go("app", func(p *sim.Proc) {
		if err := d.MemcpyHtoD(p, gpusim.CopyBandwidth/2); err != nil {
			t.Errorf("copy: %v", err)
		}
		if env.Now() != 500*time.Millisecond {
			t.Errorf("copy took %v, want 500ms", env.Now())
		}
	})
	env.Run()
}

func TestCloseFreesMemoryAndRejectsCalls(t *testing.T) {
	env := sim.NewEnv()
	dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n", MemoryBytes: 1000})
	d := Open(dev, "c1")
	env.Go("app", func(p *sim.Proc) {
		if _, err := d.MemAlloc(p, 500); err != nil {
			t.Errorf("alloc: %v", err)
		}
		if err := d.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if dev.MemoryUsed() != 0 {
			t.Errorf("device memory leaked: %d", dev.MemoryUsed())
		}
		if _, err := d.MemAlloc(p, 1); !errors.Is(err, ErrClosed) {
			t.Errorf("alloc after close: %v", err)
		}
		if err := d.LaunchKernel(p, time.Millisecond); !errors.Is(err, ErrClosed) {
			t.Errorf("launch after close: %v", err)
		}
		if err := d.Close(p); err != nil {
			t.Errorf("double close: %v", err)
		}
	})
	env.Run()
}

func TestDeviceInfo(t *testing.T) {
	env := sim.NewEnv()
	dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n", MemoryBytes: 4096})
	d := Open(dev, "c1")
	info := d.Device()
	if info.UUID != dev.UUID() || info.MemoryBytes != 4096 {
		t.Fatalf("info = %+v", info)
	}
}

func TestAsyncLaunchAndSynchronize(t *testing.T) {
	env := sim.NewEnv()
	d := newDriver(env, 1000)
	env.Go("app", func(p *sim.Proc) {
		// Two async 50ms kernels from one context share the device
		// (processor sharing): both finish at 100ms.
		if _, err := d.LaunchKernelAsync(p, 50*time.Millisecond); err != nil {
			t.Errorf("async: %v", err)
		}
		if _, err := d.LaunchKernelAsync(p, 50*time.Millisecond); err != nil {
			t.Errorf("async: %v", err)
		}
		if env.Now() != 0 {
			t.Errorf("async launch blocked until %v", env.Now())
		}
		if err := d.Synchronize(p); err != nil {
			t.Errorf("sync: %v", err)
		}
		if env.Now() != 100*time.Millisecond {
			t.Errorf("synchronized at %v, want 100ms", env.Now())
		}
		// Synchronize with nothing outstanding is a no-op.
		if err := d.Synchronize(p); err != nil {
			t.Errorf("idle sync: %v", err)
		}
		if env.Now() != 100*time.Millisecond {
			t.Errorf("idle sync advanced time to %v", env.Now())
		}
	})
	env.Run()
}

func TestAsyncAfterCloseErrors(t *testing.T) {
	env := sim.NewEnv()
	d := newDriver(env, 1000)
	env.Go("app", func(p *sim.Proc) {
		d.Close(p)
		if _, err := d.LaunchKernelAsync(p, time.Millisecond); !errors.Is(err, ErrClosed) {
			t.Errorf("async after close: %v", err)
		}
		if err := d.Synchronize(p); !errors.Is(err, ErrClosed) {
			t.Errorf("sync after close: %v", err)
		}
	})
	env.Run()
}
