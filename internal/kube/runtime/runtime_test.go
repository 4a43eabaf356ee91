package runtime

import (
	"errors"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

func testRig(env *sim.Env, gpus int) (*Runtime, []*gpusim.Device) {
	images := NewImageRegistry()
	var devs []*gpusim.Device
	for i := 0; i < gpus; i++ {
		devs = append(devs, gpusim.NewDevice(env, gpusim.Config{Index: i, NodeName: "n"}))
	}
	return New(env, images, devs, Config{StartLatency: 100 * time.Millisecond}), devs
}

func pod(name string) *api.Pod {
	return &api.Pod{ObjectMeta: api.ObjectMeta{Name: name}}
}

func TestImageRegistryLookupAndRetag(t *testing.T) {
	r := NewImageRegistry()
	if _, ok := r.Lookup("missing"); ok {
		t.Fatal("lookup of missing image succeeded")
	}
	r.Register("img", func(*Ctx) error { return errors.New("v1") })
	r.Register("img", func(*Ctx) error { return errors.New("v2") })
	e, ok := r.Lookup("img")
	if !ok || e(nil).Error() != "v2" {
		t.Fatal("retag did not replace the entrypoint")
	}
}

func TestStartRunsEntrypointAfterLatency(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := testRig(env, 0)
	var startedAt time.Duration
	rt.images.Register("app", func(ctx *Ctx) error {
		startedAt = env.Now()
		return nil
	})
	h, err := rt.Start(pod("p"), api.Container{Name: "c", Image: "app"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	if startedAt != 100*time.Millisecond {
		t.Fatalf("entrypoint at %v, want 100ms", startedAt)
	}
	if h.State() != StateExited || h.ExitErr() != nil {
		t.Fatalf("state=%v err=%v", h.State(), h.ExitErr())
	}
}

func TestUnknownImageFailsFast(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := testRig(env, 0)
	if _, err := rt.Start(pod("p"), api.Container{Name: "c", Image: "ghost"}, nil); err == nil {
		t.Fatal("unknown image accepted")
	}
}

func TestEnvMergeExtraWins(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := testRig(env, 0)
	var got map[string]string
	rt.images.Register("app", func(ctx *Ctx) error { got = ctx.Env; return nil })
	c := api.Container{Name: "c", Image: "app", Env: map[string]string{"A": "spec", "B": "spec"}}
	rt.Start(pod("p"), c, map[string]string{"B": "alloc", "C": "alloc"})
	env.Run()
	if got["A"] != "spec" || got["B"] != "alloc" || got["C"] != "alloc" {
		t.Fatalf("env = %v", got)
	}
}

func TestCUDAResolution(t *testing.T) {
	env := sim.NewEnv()
	rt, devs := testRig(env, 2)
	var info cuda.DeviceInfo
	var had bool
	rt.images.Register("gpu", func(ctx *Ctx) error {
		had = ctx.CUDA != nil
		if had {
			info = ctx.CUDA.Device()
		}
		return nil
	})
	extra := map[string]string{"NVIDIA_VISIBLE_DEVICES": devs[1].UUID()}
	rt.Start(pod("p"), api.Container{Name: "c", Image: "gpu"}, extra)
	env.Run()
	if !had || info.UUID != devs[1].UUID() {
		t.Fatalf("CUDA resolution wrong: had=%v uuid=%s", had, info.UUID)
	}
}

func TestNoVisibleDevicesMeansNilCUDA(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := testRig(env, 2)
	sawNil := false
	rt.images.Register("cpu", func(ctx *Ctx) error { sawNil = ctx.CUDA == nil; return nil })
	rt.Start(pod("p"), api.Container{Name: "c", Image: "cpu"}, nil)
	env.Run()
	if !sawNil {
		t.Fatal("container without visible devices got a CUDA handle")
	}
}

func TestUnknownUUIDFailsContainer(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := testRig(env, 1)
	rt.images.Register("gpu", func(ctx *Ctx) error { return nil })
	h, err := rt.Start(pod("p"), api.Container{Name: "c", Image: "gpu"},
		map[string]string{"NVIDIA_VISIBLE_DEVICES": "GPU-bogus"})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	if h.ExitErr() == nil {
		t.Fatal("bogus UUID did not fail the container")
	}
}

// hookAPI wraps a base API to observe interposition.
type hookAPI struct {
	cuda.API
	launches int
}

func (h *hookAPI) LaunchKernel(p *sim.Proc, work time.Duration) error {
	h.launches++
	return h.API.LaunchKernel(p, work)
}

func TestLibraryHookInterposes(t *testing.T) {
	env := sim.NewEnv()
	rt, devs := testRig(env, 1)
	var wrapped *hookAPI
	rt.AddLibraryHook(func(pod *api.Pod, c api.Container, base cuda.API) (cuda.API, error) {
		if base == nil {
			return nil, nil
		}
		wrapped = &hookAPI{API: base}
		return wrapped, nil
	})
	rt.images.Register("gpu", func(ctx *Ctx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, time.Millisecond)
	})
	rt.Start(pod("p"), api.Container{Name: "c", Image: "gpu"},
		map[string]string{"NVIDIA_VISIBLE_DEVICES": devs[0].UUID()})
	env.Run()
	if wrapped == nil || wrapped.launches != 1 {
		t.Fatalf("hook not interposed (wrapped=%v)", wrapped)
	}
}

func TestHookLastRegisteredWins(t *testing.T) {
	env := sim.NewEnv()
	rt, devs := testRig(env, 1)
	order := ""
	rt.AddLibraryHook(func(_ *api.Pod, _ api.Container, base cuda.API) (cuda.API, error) {
		order += "first"
		return base, nil
	})
	rt.AddLibraryHook(func(_ *api.Pod, _ api.Container, base cuda.API) (cuda.API, error) {
		order += "second"
		return base, nil // non-nil: wins, first hook never runs
	})
	rt.images.Register("gpu", func(ctx *Ctx) error { return nil })
	rt.Start(pod("p"), api.Container{Name: "c", Image: "gpu"},
		map[string]string{"NVIDIA_VISIBLE_DEVICES": devs[0].UUID()})
	env.Run()
	if order != "second" {
		t.Fatalf("hook order = %q", order)
	}
}

// TestHookErrorFailsContainer: a library hook that refuses the container
// fails it with the hook's error before the entrypoint runs, and the raw
// driver the hook was handed is closed.
func TestHookErrorFailsContainer(t *testing.T) {
	env := sim.NewEnv()
	rt, devs := testRig(env, 1)
	refused := errors.New("device already shared in another mode")
	rt.AddLibraryHook(func(_ *api.Pod, _ api.Container, base cuda.API) (cuda.API, error) {
		return nil, refused
	})
	ran := false
	rt.images.Register("gpu", func(ctx *Ctx) error {
		ran = true
		return nil
	})
	h, _ := rt.Start(pod("p"), api.Container{Name: "c", Image: "gpu"},
		map[string]string{"NVIDIA_VISIBLE_DEVICES": devs[0].UUID()})
	env.Run()
	if ran || h.State() != StateExited || !errors.Is(h.ExitErr(), refused) {
		t.Fatalf("ran=%v state=%v err=%v, want the hook's error before the entrypoint", ran, h.State(), h.ExitErr())
	}
	if devs[0].ActiveContexts() != 0 {
		t.Fatal("raw driver left open after the hook failed")
	}
}

func TestStopKillsAndFiresDone(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := testRig(env, 0)
	rt.images.Register("forever", func(ctx *Ctx) error {
		ctx.Proc.Hibernate()
		return nil
	})
	h, _ := rt.Start(pod("p"), api.Container{Name: "c", Image: "forever"}, nil)
	env.Go("stopper", func(p *sim.Proc) {
		p.Wait(h.Started())
		rt.Stop(h)
	})
	env.Run()
	if h.State() != StateExited || !IsKilled(h.ExitErr()) {
		t.Fatalf("state=%v err=%v", h.State(), h.ExitErr())
	}
}

func TestStopDuringCreationReleasesWaiters(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := testRig(env, 0)
	rt.images.Register("app", func(ctx *Ctx) error { return nil })
	h, _ := rt.Start(pod("p"), api.Container{Name: "c", Image: "app"}, nil)
	var released bool
	env.Go("waiter", func(p *sim.Proc) {
		p.Wait(h.Started())
		released = true
	})
	env.Go("stopper", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // during the 100ms start latency
		rt.Stop(h)
	})
	env.Run()
	if !released {
		t.Fatal("Started waiter stuck after stop-during-creation")
	}
	if !IsKilled(h.ExitErr()) {
		t.Fatalf("err = %v", h.ExitErr())
	}
}

func TestStopExitedIsNoop(t *testing.T) {
	env := sim.NewEnv()
	rt, _ := testRig(env, 0)
	rt.images.Register("app", func(ctx *Ctx) error { return nil })
	h, _ := rt.Start(pod("p"), api.Container{Name: "c", Image: "app"}, nil)
	env.Run()
	rt.Stop(h) // must not panic
	if h.ExitErr() != nil {
		t.Fatalf("err = %v", h.ExitErr())
	}
}

func TestCUDAClosedOnExit(t *testing.T) {
	env := sim.NewEnv()
	rt, devs := testRig(env, 1)
	rt.images.Register("gpu", func(ctx *Ctx) error {
		_, err := ctx.CUDA.MemAlloc(ctx.Proc, 1<<20)
		return err
	})
	rt.Start(pod("p"), api.Container{Name: "c", Image: "gpu"},
		map[string]string{"NVIDIA_VISIBLE_DEVICES": devs[0].UUID()})
	env.Run()
	if devs[0].MemoryUsed() != 0 {
		t.Fatalf("device memory leaked: %d", devs[0].MemoryUsed())
	}
	if devs[0].ActiveContexts() != 0 {
		t.Fatal("context leaked after exit")
	}
}

// TestExitedContainerReleasesLibrary: a Handle outlives its container (the
// kubelet keeps it until the pod object is deleted) but must not keep the
// CUDA library the container loaded — closed on exit, then garbage.
func TestExitedContainerReleasesLibrary(t *testing.T) {
	env := sim.NewEnv()
	rt, devs := testRig(env, 1)
	var freed atomic.Bool
	type loaded struct{ cuda.API }
	rt.AddLibraryHook(func(_ *api.Pod, _ api.Container, base cuda.API) (cuda.API, error) {
		lib := &loaded{base}
		goruntime.SetFinalizer(lib, func(*loaded) { freed.Store(true) })
		return lib, nil
	})
	rt.images.Register("app", func(ctx *Ctx) error {
		ctx.Proc.Sleep(time.Second)
		return nil
	})
	h, err := rt.Start(pod("p"), api.Container{Name: "c", Image: "app"}, map[string]string{
		"NVIDIA_VISIBLE_DEVICES": devs[0].UUID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	if h.State() != StateExited || h.ExitErr() != nil {
		t.Fatalf("state=%v err=%v", h.State(), h.ExitErr())
	}
	for i := 0; i < 200 && !freed.Load(); i++ {
		goruntime.GC() // finalizers run on their own goroutine, some time after
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("exited container's handle still pins its CUDA library")
	}
	goruntime.KeepAlive(h)
	goruntime.KeepAlive(env)
}
