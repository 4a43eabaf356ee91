package core_test

import (
	"fmt"
	. "kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"math"
	"testing"
	"time"

	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/sim"
)

// testStack is a cluster with KubeShare installed and a training image that
// launches back-to-back 10ms kernels for the given duration of device time.
type testStack struct {
	env *sim.Env
	c   *kube.Cluster
	ks  *KubeShare
}

func newStack(t *testing.T, nodes int, cfg Config, opts ...schedfw.Option) *testStack {
	t.Helper()
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(nodes, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Every test on this stack ends with the store's mutation canary: no
	// component may have written through a shared snapshot.
	storetest.Install(t, c.API.Store())
	ks, err := schedfw.Install(c, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	registerTrainImage(c)
	return &testStack{env: env, c: c, ks: ks}
}

// registerTrainImage adds the "train" image: allocate a buffer, then launch
// kernels until TRAIN_SECONDS of device time has been consumed.
func registerTrainImage(c *kube.Cluster) {
	c.Images.Register("train", func(ctx *runtime.Ctx) error {
		if ctx.CUDA == nil {
			return fmt.Errorf("train: no GPU visible")
		}
		secs := 1.0
		if v := ctx.Env["TRAIN_SECONDS"]; v != "" {
			fmt.Sscanf(v, "%f", &secs)
		}
		if _, err := ctx.CUDA.MemAlloc(ctx.Proc, 1<<30); err != nil {
			return err
		}
		kernels := int(secs / 0.01)
		for i := 0; i < kernels; i++ {
			if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	})
}

func sharePod(name string, req, lim, mem float64, trainSecs float64) *SharePod {
	return &SharePod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: SharePodSpec{
			GPURequest: req,
			GPULimit:   lim,
			GPUMem:     mem,
			Pod: api.PodSpec{Containers: []api.Container{{
				Name:  "main",
				Image: "train",
				Env:   map[string]string{"TRAIN_SECONDS": fmt.Sprintf("%f", trainSecs)},
			}}},
		},
	}
}

func (s *testStack) create(t *testing.T, sp *SharePod) {
	t.Helper()
	if _, err := SharePods(s.c.API).Create(sp); err != nil {
		t.Fatalf("create %s: %v", sp.Name, err)
	}
}

func (s *testStack) get(t *testing.T, name string) *SharePod {
	t.Helper()
	sp, err := SharePods(s.c.API).Get(name)
	if err != nil {
		t.Fatalf("get %s: %v", name, err)
	}
	return sp
}

func TestSharePodLifecycle(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, sharePod("sp1", 0.5, 1.0, 0.25, 2))
	})
	s.env.Run()
	sp := s.get(t, "sp1")
	if sp.Status.Phase != SharePodSucceeded {
		t.Fatalf("phase = %s (%s)", sp.Status.Phase, sp.Status.Message)
	}
	if sp.Spec.GPUID == "" || sp.Status.UUID == "" || sp.Status.BoundPod == "" {
		t.Fatalf("binding incomplete: %+v", sp)
	}
	if !(sp.Status.ScheduledTime < sp.Status.RunningTime && sp.Status.RunningTime < sp.Status.FinishTime) {
		t.Fatalf("timestamps out of order: %+v", sp.Status)
	}
	// Physical device must show the work.
	dev, _, ok := s.c.Device(sp.Status.UUID)
	if !ok {
		t.Fatalf("UUID %s is not a cluster device", sp.Status.UUID)
	}
	if dev.BusyTime() < 2*time.Second {
		t.Fatalf("device busy %v, want ≥2s", dev.BusyTime())
	}
	// On-demand policy: after the job finished, the vGPU is released.
	if n := len(VGPUs(s.c.API).List()); n != 0 {
		t.Fatalf("vGPUs remain after completion: %d", n)
	}
}

func TestTwoSharePodsShareOnePhysicalGPU(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, sharePod("a", 0.5, 0.5, 0.25, 2))
		s.create(t, sharePod("b", 0.5, 0.5, 0.25, 2))
	})
	s.env.Run()
	a, b := s.get(t, "a"), s.get(t, "b")
	if a.Status.Phase != SharePodSucceeded || b.Status.Phase != SharePodSucceeded {
		t.Fatalf("phases: %s/%s (%s/%s)", a.Status.Phase, b.Status.Phase, a.Status.Message, b.Status.Message)
	}
	if a.Spec.GPUID != b.Spec.GPUID {
		t.Fatalf("best-fit failed: %s vs %s", a.Spec.GPUID, b.Spec.GPUID)
	}
	if a.Status.UUID != b.Status.UUID {
		t.Fatal("same vGPU mapped to different physical devices")
	}
	// Each got half the device: 2s of work at 0.5 share ≈ 4s wall time.
	wall := a.Status.FinishTime - a.Status.RunningTime
	if wall < 3500*time.Millisecond || wall > 5*time.Second {
		t.Fatalf("wall time %v, want ≈4s under a fair 0.5 split", wall)
	}
}

func TestElasticAllocationEndToEnd(t *testing.T) {
	// A single tenant with gpu_request 0.5 but gpu_limit 1.0 on an
	// otherwise empty GPU finishes at full speed.
	s := newStack(t, 1, Config{})
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, sharePod("solo", 0.5, 1.0, 0.25, 2))
	})
	s.env.Run()
	sp := s.get(t, "solo")
	wall := sp.Status.FinishTime - sp.Status.RunningTime
	if wall > 2300*time.Millisecond {
		t.Fatalf("wall %v; residual capacity not allocated elastically", wall)
	}
}

func TestGPULimitThrottlesEndToEnd(t *testing.T) {
	// 20s of device work under gpu_limit 0.5: the first ~5s run unthrottled
	// (the sliding window has to fill before the cap can bite), the
	// remaining 15s proceed at half rate → ≈35s wall.
	s := newStack(t, 1, Config{})
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, sharePod("capped", 0.25, 0.5, 0.25, 20))
	})
	s.env.Run()
	sp := s.get(t, "capped")
	wall := (sp.Status.FinishTime - sp.Status.RunningTime).Seconds()
	if math.Abs(wall-35.0) > 3 {
		t.Fatalf("wall %.2fs, want ≈35s at gpu_limit 0.5", wall)
	}
}

func TestAntiAffinitySeparatesPhysicalDevices(t *testing.T) {
	s := newStack(t, 1, Config{})
	mk := func(name string) *SharePod {
		sp := sharePod(name, 0.3, 0.6, 0.2, 1)
		sp.Spec.AntiAffinity = "spread"
		return sp
	}
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, mk("x"))
		s.create(t, mk("y"))
	})
	s.env.Run()
	x, y := s.get(t, "x"), s.get(t, "y")
	if x.Status.UUID == y.Status.UUID {
		t.Fatal("anti-affinity tenants share a physical GPU")
	}
	if x.Status.Phase != SharePodSucceeded || y.Status.Phase != SharePodSucceeded {
		t.Fatalf("phases %s/%s", x.Status.Phase, y.Status.Phase)
	}
}

func TestAffinityColocatesEndToEnd(t *testing.T) {
	s := newStack(t, 2, Config{})
	mk := func(name string) *SharePod {
		sp := sharePod(name, 0.3, 0.4, 0.2, 1)
		sp.Spec.Affinity = "together"
		return sp
	}
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, mk("x"))
		p.Sleep(500 * time.Millisecond)
		s.create(t, mk("y"))
	})
	s.env.Run()
	x, y := s.get(t, "x"), s.get(t, "y")
	if x.Spec.GPUID != y.Spec.GPUID || x.Spec.NodeName != y.Spec.NodeName {
		t.Fatalf("affinity group split: %s@%s vs %s@%s",
			x.Spec.GPUID, x.Spec.NodeName, y.Spec.GPUID, y.Spec.NodeName)
	}
}

func TestRejectedSharePodReportsReason(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("submit", func(p *sim.Proc) {
		a := sharePod("a", 0.8, 0.8, 0.2, 30)
		a.Spec.Affinity = "grp"
		s.create(t, a)
		p.Sleep(2 * time.Second)
		b := sharePod("b", 0.5, 0.5, 0.2, 1)
		b.Spec.Affinity = "grp"
		s.create(t, b)
		p.Sleep(2 * time.Second)
		// Don't wait 30s of training: tear down.
		SharePods(s.c.API).Delete("a")
	})
	s.env.Run()
	b := s.get(t, "b")
	if b.Status.Phase != SharePodRejected || b.Status.Message == "" {
		t.Fatalf("status = %+v, want Rejected with reason", b.Status)
	}
}

func TestQueueingWhenClusterFull(t *testing.T) {
	// 1 node × 4 GPUs; 8 jobs of 0.9 GPU each: only 4 run at a time, the
	// rest queue (NoCapacity) and complete later.
	s := newStack(t, 1, Config{})
	s.env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			s.create(t, sharePod(fmt.Sprintf("q%d", i), 0.9, 1.0, 0.2, 2))
		}
	})
	s.env.Run()
	var maxFinish time.Duration
	for i := 0; i < 8; i++ {
		sp := s.get(t, fmt.Sprintf("q%d", i))
		if sp.Status.Phase != SharePodSucceeded {
			t.Fatalf("%s: %s (%s)", sp.Name, sp.Status.Phase, sp.Status.Message)
		}
		if sp.Status.FinishTime > maxFinish {
			maxFinish = sp.Status.FinishTime
		}
	}
	// Two waves of ~2s each plus setup: total must exceed one wave but stay
	// bounded.
	if maxFinish < 4*time.Second || maxFinish > 20*time.Second {
		t.Fatalf("makespan %v out of the two-wave range", maxFinish)
	}
}

func TestOnDemandReleasesGPUToNativePods(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.c.Images.Register("native", func(ctx *runtime.Ctx) error {
		if ctx.CUDA == nil {
			return fmt.Errorf("no GPU")
		}
		return ctx.CUDA.LaunchKernel(ctx.Proc, 100*time.Millisecond)
	})
	s.env.Go("submit", func(p *sim.Proc) {
		// Fill all 4 GPUs with sharePods.
		for i := 0; i < 4; i++ {
			s.create(t, sharePod(fmt.Sprintf("sp%d", i), 0.9, 1.0, 0.2, 1))
		}
		p.Sleep(15 * time.Second) // sharePods finish, vGPUs released (on-demand)
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "native-gpu"},
			Spec: api.PodSpec{Containers: []api.Container{{
				Name: "c", Image: "native",
				Requests: api.ResourceList{api.ResourceGPU: 4},
			}}},
		}
		if _, err := s.c.Pods().Create(pod); err != nil {
			t.Errorf("create native pod: %v", err)
		}
	})
	s.env.Run()
	pod, err := s.c.Pods().Get("native-gpu")
	if err != nil {
		t.Fatal(err)
	}
	if pod.Status.Phase != api.PodSucceeded {
		t.Fatalf("native pod after release: %s (%s)", pod.Status.Phase, pod.Status.Message)
	}
}

func TestReservationKeepsIdleVGPU(t *testing.T) {
	s := newStack(t, 1, Config{DevMgr: DevMgrConfig{Policy: Reservation}})
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, sharePod("first", 0.5, 1, 0.2, 1))
	})
	s.env.RunUntil(20 * time.Second)
	vgpus := VGPUs(s.c.API).List()
	if len(vgpus) != 1 || vgpus[0].Status.Phase != VGPUIdle {
		t.Fatalf("vgpus = %+v, want one Idle", vgpus)
	}
	// A second sharePod reuses the idle vGPU — no new holder pod.
	firstUUID := vgpus[0].Status.UUID
	s.env.Go("submit2", func(p *sim.Proc) {
		s.create(t, sharePod("second", 0.5, 1, 0.2, 1))
	})
	s.env.RunUntil(40 * time.Second)
	second := s.get(t, "second")
	if second.Status.Phase != SharePodSucceeded {
		t.Fatalf("second: %s (%s)", second.Status.Phase, second.Status.Message)
	}
	if second.Status.UUID != firstUUID {
		t.Fatal("idle vGPU not reused under reservation policy")
	}
}

func TestDeleteRunningSharePodFreesEverything(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, sharePod("doomed", 0.5, 1, 0.2, 3600))
		p.Sleep(10 * time.Second)
		if err := SharePods(s.c.API).Delete("doomed"); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
	s.env.Run()
	if n := len(VGPUs(s.c.API).List()); n != 0 {
		t.Fatalf("vGPUs remain: %d", n)
	}
	if n := len(s.c.Pods().List()); n != 0 {
		t.Fatalf("pods remain: %d", n)
	}
	if s.env.Now() > time.Minute {
		t.Fatalf("simulation ran to %v; the killed job kept it alive", s.env.Now())
	}
}

func TestExtenderRoundRobinOvercommits(t *testing.T) {
	// The baseline packs by node aggregate and binds round-robin: three 0.6
	// jobs on a 2-GPU node land A→gpu0, B→gpu1, C→gpu0, over-committing
	// device 0 (Fig 3a). KubeShare would instead make C wait.
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.Config{Nodes: []kube.NodeConfig{{Name: "n0", GPUs: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = schedfw.InstallExtender(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	registerTrainImage(c)
	env.Go("submit", func(p *sim.Proc) {
		for _, n := range []string{"a", "b", "c"} {
			if _, err := SharePods(c.API).Create(sharePod(n, 0.6, 0.6, 0.2, 2)); err != nil {
				t.Errorf("create: %v", err)
			}
		}
	})
	env.RunUntil(5 * time.Second)
	byDevice := map[string][]string{}
	for _, sp := range SharePods(c.API).List() {
		if sp.Placed() {
			byDevice[sp.Spec.GPUID] = append(byDevice[sp.Spec.GPUID], sp.Name)
		}
	}
	if len(byDevice["ext-n0-gpu0"]) != 2 || len(byDevice["ext-n0-gpu1"]) != 1 {
		t.Fatalf("placement = %v, want round-robin over-commitment on gpu0", byDevice)
	}
	env.Run()
	// The over-committed pair must finish slower than the solo job.
	solo := SharePodsGetWall(t, c, "b")
	shared := SharePodsGetWall(t, c, "a")
	if shared <= solo {
		t.Fatalf("over-commitment had no effect: shared %v vs solo %v", shared, solo)
	}
}

// SharePodsGetWall returns a finished sharePod's bound-pod wall time.
func SharePodsGetWall(t *testing.T, c *kube.Cluster, name string) time.Duration {
	t.Helper()
	sp, err := SharePods(c.API).Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Status.Phase != SharePodSucceeded {
		t.Fatalf("%s: %s (%s)", name, sp.Status.Phase, sp.Status.Message)
	}
	return sp.Status.FinishTime - sp.Status.RunningTime
}

func TestValidateSharePodRejectsBadSpecs(t *testing.T) {
	s := newStack(t, 1, Config{})
	bad := []*SharePod{
		{ObjectMeta: api.ObjectMeta{Name: "no-containers"}, Spec: SharePodSpec{GPURequest: 0.5, GPUMem: 0.5}},
		func() *SharePod { sp := sharePod("zero-req", 0, 0.5, 0.5, 1); return sp }(),
		func() *SharePod { sp := sharePod("bad-mem", 0.5, 0.5, 1.5, 1); return sp }(),
		func() *SharePod {
			sp := sharePod("gpuid-no-node", 0.5, 0.5, 0.5, 1)
			sp.Spec.GPUID = "vgpu-x"
			return sp
		}(),
		func() *SharePod {
			sp := sharePod("two-containers", 0.5, 0.5, 0.5, 1)
			sp.Spec.Pod.Containers = append(sp.Spec.Pod.Containers,
				api.Container{Name: "extra", Image: "train"})
			return sp
		}(),
		func() *SharePod {
			sp := sharePod("whole-gpu-request", 0.5, 0.5, 0.5, 1)
			sp.Spec.Pod.Containers[0].Requests = api.ResourceList{api.ResourceGPU: 1}
			return sp
		}(),
	}
	for _, sp := range bad {
		if _, err := SharePods(s.c.API).Create(sp); err == nil {
			t.Errorf("invalid sharePod %s accepted", sp.Name)
		}
	}
}
