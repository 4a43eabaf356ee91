package kube

import (
	"errors"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/runtime"
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
	c := newTestCluster(t, env, DefaultConfig(1))
	sleepImage(c, "work", 2*time.Second)
	var final *api.Pod
	env.Go("test", func(p *sim.Proc) {
		if _, err := c.Pods().Create(simplePod("p1", "work", api.ResourceList{api.ResourceCPU: 1000})); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		pod, err := c.WaitPodPhase(p, "p1", api.PodSucceeded, api.PodFailed)
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
	c := newTestCluster(t, env, DefaultConfig(1))
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
		if _, err := c.WaitPodPhase(p, "g1", api.PodSucceeded, api.PodFailed); err != nil {
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
	c := newTestCluster(t, env, DefaultConfig(1)) // 4 GPUs
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
	c := newTestCluster(t, env, DefaultConfig(1))
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
		got, err := c.WaitPodPhase(p, "sel", api.PodSucceeded)
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
	c := newTestCluster(t, env, DefaultConfig(2))
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
	c := newTestCluster(t, env, DefaultConfig(1))
	c.Images.Register("crash", func(ctx *runtime.Ctx) error {
		ctx.Proc.Sleep(time.Second)
		return errors.New("segfault")
	})
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(simplePod("boom", "crash", nil))
		pod, err := c.WaitPodPhase(p, "boom", api.PodSucceeded, api.PodFailed)
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
	c := newTestCluster(t, env, DefaultConfig(1))
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(simplePod("noimg", "ghost-image", nil))
		pod, _ := c.WaitPodPhase(p, "noimg", api.PodFailed)
		if pod == nil {
			t.Error("pod never failed")
		}
	})
	env.Run()
}

func TestDeletePodStopsContainersAndFreesGPU(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(1))
	started := false
	c.Images.Register("forever", func(ctx *runtime.Ctx) error {
		started = true
		ctx.Proc.Sleep(time.Hour)
		return nil
	})
	env.Go("test", func(p *sim.Proc) {
		c.Pods().Create(simplePod("d1", "forever", api.ResourceList{api.ResourceGPU: 4}))
		if _, err := c.WaitPodPhase(p, "d1", api.PodRunning); err != nil {
			t.Errorf("wait running: %v", err)
			return
		}
		if err := c.Pods().Delete("d1"); err != nil {
			t.Errorf("delete: %v", err)
		}
		// The GPUs must be reusable by a fresh pod.
		c.Pods().Create(simplePod("d2", "forever", api.ResourceList{api.ResourceGPU: 4}))
		if _, err := c.WaitPodPhase(p, "d2", api.PodRunning); err != nil {
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

func TestReplicationControllerMaintainsReplicas(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(2))
	sleepImage(c, "svc", time.Hour)
	rc := &api.ReplicationController{
		ObjectMeta:     api.ObjectMeta{Name: "web"},
		Replicas:       3,
		Selector:       map[string]string{"app": "web"},
		TemplateLabels: map[string]string{"app": "web"},
		Template: api.PodSpec{Containers: []api.Container{{
			Name: "c", Image: "svc", Requests: api.ResourceList{api.ResourceCPU: 100},
		}}},
	}
	env.Go("test", func(p *sim.Proc) {
		if _, err := c.RCs().Create(rc); err != nil {
			t.Errorf("create rc: %v", err)
		}
	})
	env.RunUntil(10 * time.Second)
	pods := c.Pods().List()
	if len(pods) != 3 {
		t.Fatalf("pods = %d, want 3", len(pods))
	}
	// Scale down.
	env.Go("scale", func(p *sim.Proc) {
		c.RCs().Mutate("web", func(cur *api.ReplicationController) error {
			cur.Replicas = 1
			return nil
		})
	})
	env.RunUntil(20 * time.Second)
	live := 0
	for _, pod := range c.Pods().List() {
		if !pod.Terminated() {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("live pods after scale-down = %d, want 1", live)
	}
	// Delete RC: pods garbage collected.
	env.Go("del", func(p *sim.Proc) { c.RCs().Delete("web") })
	env.RunUntil(30 * time.Second)
	if n := len(c.Pods().List()); n != 0 {
		t.Fatalf("orphan pods remain: %d", n)
	}
}

func TestConcurrentPodCreationAllScheduled(t *testing.T) {
	env := sim.NewEnv()
	c := newTestCluster(t, env, DefaultConfig(4))
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
