package kube

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/sim"
)

// sleepImage registers an image whose entrypoint sleeps for d.
func sleepImage(c *Cluster, name string, d time.Duration) {
	c.Images.Register(name, func(ctx *runtime.Ctx) error {
		ctx.Proc.Sleep(d)
		return nil
	})
}

// newTestCluster builds a cluster with the store's mutation canary on: at
// the end of the test every snapshot the store published must still equal
// the copy taken at publication, whichever component received it.
func newTestCluster(t *testing.T, env *sim.Env, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	storetest.Install(t, c.API.Store())
	return c
}

func simplePod(name, image string, req api.ResourceList) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: api.PodSpec{Containers: []api.Container{{
			Name: "main", Image: image, Requests: req,
		}}},
	}
}

func TestPodLifecycleEndToEnd(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(1, 4))
	sleepImage(c, "work", 2*time.Second)
	var final *api.Pod
	env.Go("test", func(p *sim.Proc) {
		if _, err := c.Pods().Create(simplePod("p1", "work", api.ResourceList{api.ResourceCPU: 1000})); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		pod, err := c.waitPodPhase(p, "p1", api.PodSucceeded, api.PodFailed)
		if err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		final = pod
	})
	env.Run()
	if final == nil {
		t.Fatal("pod never finished")
	}
	if final.Status.Phase != api.PodSucceeded {
		t.Fatalf("phase = %s (%s)", final.Status.Phase, final.Status.Message)
	}
	if final.Spec.NodeName != "node-0" {
		t.Fatalf("node = %q", final.Spec.NodeName)
	}
	if final.Status.ScheduledTime == 0 || final.Status.StartTime <= final.Status.ScheduledTime {
		t.Fatalf("timestamps: sched=%v start=%v", final.Status.ScheduledTime, final.Status.StartTime)
	}
	// Entrypoint slept 2s; finish = start + 2s.
	if got := final.Status.FinishTime - final.Status.StartTime; got != 2*time.Second {
		t.Fatalf("run duration = %v", got)
	}
}

func TestGPUPodGetsVisibleDevices(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(1, 4))
	var visible string
	var hadCUDA bool
	c.Images.Register("gpu-app", func(ctx *runtime.Ctx) error {
		visible = ctx.Env["NVIDIA_VISIBLE_DEVICES"]
		hadCUDA = ctx.CUDA != nil
		if ctx.CUDA != nil {
			return ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond)
		}
		return nil
	})
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(simplePod("g1", "gpu-app", api.ResourceList{api.ResourceGPU: 1}))
		if _, err := c.waitPodPhase(p, "g1", api.PodSucceeded, api.PodFailed); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	env.Run()
	if !hadCUDA {
		t.Fatal("GPU pod had no CUDA handle")
	}
	if _, _, ok := c.Device(visible); !ok {
		t.Fatalf("NVIDIA_VISIBLE_DEVICES=%q does not name a cluster GPU", visible)
	}
	// The kernel must have run on that physical device.
	dev, _, _ := c.Device(visible)
	if dev.BusyTime() != 10*time.Millisecond {
		t.Fatalf("device busy %v, want 10ms", dev.BusyTime())
	}
}

func TestSchedulerRespectsGPUCounts(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(1, 4))
	sleepImage(c, "hog", time.Hour)
	env.Go("test", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			c.Pods().Create(simplePod(
				name("hog", i), "hog", api.ResourceList{api.ResourceGPU: 1}))
		}
	})
	env.RunUntil(30 * time.Second)
	bound, pending := 0, 0
	for _, pod := range c.Pods().List() {
		if pod.Spec.NodeName != "" {
			bound++
		} else {
			pending++
		}
	}
	if bound != 4 || pending != 1 {
		t.Fatalf("bound=%d pending=%d, want 4/1 (4 GPUs)", bound, pending)
	}
}

func TestPendingPodScheduledAfterRelease(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(1, 4))
	sleepImage(c, "short", 5*time.Second)
	env.Go("test", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			c.Pods().Create(simplePod(
				name("j", i), "short", api.ResourceList{api.ResourceGPU: 1}))
		}
	})
	env.Run()
	for _, pod := range c.Pods().List() {
		if pod.Status.Phase != api.PodSucceeded {
			t.Fatalf("pod %s phase %s", pod.Name, pod.Status.Phase)
		}
	}
}

func TestNodeSelectorRespected(t *testing.T) {
	env := sim.NewEnv()
	cfg := Config{Nodes: []NodeConfig{
		{Name: "cpu-node", GPUs: 0},
		{Name: "gpu-node", GPUs: 2, Labels: map[string]string{"accel": "v100"}},
	}}
	c := newTestCluster(t, env, cfg)
	sleepImage(c, "w", time.Second)
	pod := simplePod("sel", "w", api.ResourceList{api.ResourceCPU: 100})
	pod.Spec.NodeSelector = map[string]string{"accel": "v100"}
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(pod)
		got, err := c.waitPodPhase(p, "sel", api.PodSucceeded)
		if err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		if got.Spec.NodeName != "gpu-node" {
			t.Errorf("node = %s", got.Spec.NodeName)
		}
	})
	env.Run()
}

func TestPodSpreadAcrossNodesLeastAllocated(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(2, 4))
	sleepImage(c, "w", time.Hour)
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(simplePod("a", "w", api.ResourceList{api.ResourceCPU: 18000}))
		p.Sleep(5 * time.Second)
		c.Pods().Create(simplePod("b", "w", api.ResourceList{api.ResourceCPU: 18000}))
	})
	env.RunUntil(20 * time.Second)
	a, _ := c.Pods().Get("a")
	b, _ := c.Pods().Get("b")
	if a.Spec.NodeName == b.Spec.NodeName {
		t.Fatalf("least-allocated scoring put both pods on %s", a.Spec.NodeName)
	}
}

func TestFailedContainerMarksPodFailed(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(1, 4))
	c.Images.Register("crash", func(ctx *runtime.Ctx) error {
		ctx.Proc.Sleep(time.Second)
		return errors.New("segfault")
	})
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(simplePod("boom", "crash", nil))
		pod, err := c.waitPodPhase(p, "boom", api.PodSucceeded, api.PodFailed)
		if err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		if pod.Status.Phase != api.PodFailed || pod.Status.Message != "segfault" {
			t.Errorf("status = %+v", pod.Status)
		}
	})
	env.Run()
}

func TestUnknownImageFailsPod(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(1, 4))
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(simplePod("noimg", "ghost-image", nil))
		pod, _ := c.waitPodPhase(p, "noimg", api.PodFailed)
		if pod == nil {
			t.Error("pod never failed")
		}
	})
	env.Run()
}

func TestDeletePodStopsContainersAndFreesGPU(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(1, 4))
	started := false
	c.Images.Register("forever", func(ctx *runtime.Ctx) error {
		started = true
		ctx.Proc.Sleep(time.Hour)
		return nil
	})
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(simplePod("d1", "forever", api.ResourceList{api.ResourceGPU: 4}))
		if _, err := c.waitPodPhase(p, "d1", api.PodRunning); err != nil {
			t.Errorf("wait running: %v", err)
			return
		}
		if err := c.Pods().Delete("d1"); err != nil {
			t.Errorf("delete: %v", err)
		}
		// The GPUs must be reusable by a fresh pod.
		c.Pods().Create(simplePod("d2", "forever", api.ResourceList{api.ResourceGPU: 4}))
		if _, err := c.waitPodPhase(p, "d2", api.PodRunning); err != nil {
			t.Errorf("d2 never ran: %v", err)
		}
		c.Pods().Delete("d2")
	})
	env.Run()
	if !started {
		t.Fatal("container never started")
	}
	node := c.Nodes[0]
	if got := node.Kubelet.DeviceManager().Capacity()[api.ResourceGPU]; got != 4 {
		t.Fatalf("GPU capacity corrupted: %d", got)
	}
	if env.Now() > time.Minute {
		t.Fatalf("deleted pods kept simulation alive until %v", env.Now())
	}
}

func TestConcurrentPodCreationAllScheduled(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(4, 4))
	sleepImage(c, "w", 10*time.Second)
	const n = 16
	env.Go("test", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c.Pods().Create(simplePod(name("c", i), "w", api.ResourceList{api.ResourceGPU: 1}))
		}
	})
	env.Run()
	succeeded := 0
	for _, pod := range c.Pods().List() {
		if pod.Status.Phase == api.PodSucceeded {
			succeeded++
		}
	}
	if succeeded != n {
		t.Fatalf("succeeded = %d, want %d", succeeded, n)
	}
}

func name(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// waitPodPhase parks p until the named pod reaches one of the phases (or is
// deleted, returning an error). It polls via watch events.
func (c *Cluster) waitPodPhase(p *sim.Proc, name string, phases ...api.PodPhase) (*api.Pod, error) {
	match := func(pod *api.Pod) bool {
		for _, ph := range phases {
			if pod.Status.Phase == ph {
				return true
			}
		}
		return false
	}
	// Name-filtered subscription: unrelated pod churn never wakes the waiter.
	q := c.API.WatchFiltered("Pod", apiserver.WatchOptions{Name: name, Replay: true})
	defer c.API.StopWatch(q)
	for {
		ev, ok := q.Get(p)
		if !ok {
			return nil, fmt.Errorf("kube: watch closed waiting for %s", name)
		}
		pod := ev.Object.(*api.Pod)
		if ev.Type == store.Deleted {
			return nil, fmt.Errorf("kube: pod %s deleted while waiting", name)
		}
		if match(pod) {
			return pod, nil
		}
	}
}
