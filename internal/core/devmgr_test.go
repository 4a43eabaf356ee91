package core_test

import (
	"fmt"
	. "kubeshare/internal/core"
	"reflect"
	"testing"
	"time"

	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// TestHolderPodPinsGPU: while a sharePod runs, the pool's holder pod keeps
// the physical GPU allocated from Kubernetes' point of view, so native pods
// cannot steal it.
func TestHolderPodPinsGPU(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.c.Images.Register("native", func(ctx *runtime.Ctx) error { return nil })
	s.env.Go("t", func(p *sim.Proc) {
		s.create(t, sharePod("tenant", 0.5, 1, 0.2, 30))
		p.Sleep(5 * time.Second)
		// All 4 GPUs: 1 held by the vGPU holder; a native pod wanting 4
		// must stay pending.
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "native4"},
			Spec: api.PodSpec{Containers: []api.Container{{
				Name: "c", Image: "native",
				Requests: api.ResourceList{api.ResourceGPU: 4},
			}}},
		}
		if _, err := s.c.Pods().Create(pod); err != nil {
			t.Errorf("create: %v", err)
		}
		p.Sleep(5 * time.Second)
		got, _ := s.c.Pods().Get("native4")
		if got.Spec.NodeName != "" {
			t.Error("native pod scheduled while holder pins a GPU")
		}
	})
	s.env.Run()
	// After the tenant finishes (on-demand release), the native pod runs.
	got, _ := s.c.Pods().Get("native4")
	if got.Status.Phase != api.PodSucceeded {
		t.Fatalf("native pod after release: %s (%s)", got.Status.Phase, got.Status.Message)
	}
}

// TestVGPUPhasesObservable: the VGPU object walks Creating → Active →
// (deleted) in the on-demand policy.
func TestVGPUPhasesObservable(t *testing.T) {
	s := newStack(t, 1, Config{})
	var sawCreating, sawActive bool
	s.env.Go("observer", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			p.Sleep(50 * time.Millisecond)
			for _, v := range VGPUs(s.c.API).List() {
				switch v.Status.Phase {
				case VGPUCreating:
					sawCreating = true
				case VGPUActive:
					sawActive = true
					if v.Status.UUID == "" {
						t.Error("active vGPU without UUID")
					}
				}
			}
		}
	})
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, sharePod("sp", 0.5, 1, 0.2, 2))
	})
	s.env.Run()
	if !sawCreating || !sawActive {
		t.Fatalf("phases observed: creating=%v active=%v", sawCreating, sawActive)
	}
}

// TestUserPinnedGPUID: a client may set GPUID/NodeName explicitly (GPUs are
// first-class, user-addressable); DevMgr honours the pin without the
// scheduler's involvement.
func TestUserPinnedGPUID(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("t", func(p *sim.Proc) {
		// First sharePod scheduled normally, establishing vgpu-0001.
		s.create(t, sharePod("auto", 0.4, 0.5, 0.2, 10))
		p.Sleep(5 * time.Second)
		auto := s.get(t, "auto")
		// Second sharePod pinned to the same vGPU by the user.
		pinned := sharePod("pinned", 0.4, 0.5, 0.2, 5)
		pinned.Spec.GPUID = auto.Spec.GPUID
		pinned.Spec.NodeName = auto.Spec.NodeName
		pinned.Status.Phase = SharePodScheduled
		s.create(t, pinned)
	})
	s.env.Run()
	auto, pinned := s.get(t, "auto"), s.get(t, "pinned")
	if pinned.Status.Phase != SharePodSucceeded {
		t.Fatalf("pinned: %s (%s)", pinned.Status.Phase, pinned.Status.Message)
	}
	if pinned.Status.UUID != auto.Status.UUID {
		t.Fatal("pin not honoured: different physical GPUs")
	}
}

// TestDevMgrHolderDeletedBeforeReport: the holder pod is deleted while its
// pod sync is in flight, before it reports a UUID. The tenant waiting on it
// is requeued, rebound and succeeds, and neither a vGPU nor a holder pod is
// left behind (the chaos soak once found binds stranded here forever).
func TestDevMgrHolderDeletedBeforeReport(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("t", func(p *sim.Proc) {
		s.create(t, sharePod("sp", 0.5, 1, 0.2, 2))
		for {
			p.Sleep(10 * time.Millisecond)
			if vs := VGPUs(s.c.API).List(); len(vs) > 0 {
				if vs[0].Status.UUID != "" {
					t.Error("the holder reported before it could be deleted")
				} else if err := s.c.Pods().Delete(vs[0].Status.HolderPod); err != nil {
					t.Errorf("delete holder: %v", err)
				}
				return
			}
		}
	})
	s.env.Run()
	if sp := s.get(t, "sp"); sp.Status.Phase != SharePodSucceeded || sp.Status.Restarts == 0 {
		t.Fatalf("sharePod %s after %d requeues, want Succeeded after a requeue", sp.Status.Phase, sp.Status.Restarts)
	}
	if n := VGPUs(s.c.API).Count(); n != 0 {
		t.Errorf("%d vGPU objects left", n)
	}
	for _, pod := range s.c.Pods().List() {
		if pod.Labels[LabelVGPUHolder] != "" {
			t.Errorf("holder pod %s left, %s", pod.Name, pod.Status.Phase)
		}
	}
}

// TestDevMgrRestartWritesNoUnchangedStatus: an apiserver restart while
// tenants run makes every DevMgr watch relist and deliver again what it had
// seen. Nothing has changed, so no sharePod or vGPU status write may leave
// its object as it was.
func TestDevMgrRestartWritesNoUnchangedStatus(t *testing.T) {
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schedfw.Install(c, Config{}); err != nil {
		t.Fatal(err)
	}
	registerTrainImage(c)
	c.API.EnableDurability(apiserver.DurabilityConfig{})
	last := map[string]api.Object{}
	var unchanged []string
	c.API.Store().OnPublish(func(ev store.Event) {
		key := api.Key(ev.Object)
		prev := last[key]
		last[key] = ev.Object
		if ev.Type != store.Modified || prev == nil {
			return
		}
		switch cur := ev.Object.(type) {
		case *SharePod:
			was := prev.(*SharePod)
			if was.Status == cur.Status && reflect.DeepEqual(was.Spec, cur.Spec) {
				unchanged = append(unchanged, key)
			}
		case *VGPU:
			if was := prev.(*VGPU); was.Status == cur.Status && was.Spec == cur.Spec {
				unchanged = append(unchanged, key)
			}
		}
	})
	env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if _, err := SharePods(c.API).Create(sharePod(fmt.Sprintf("sp-%d", i), 0.2, 0.5, 0.2, 5)); err != nil {
				t.Errorf("create: %v", err)
			}
		}
		p.Sleep(4 * time.Second)
		running := 0
		for _, sp := range SharePods(c.API).List() {
			if sp.Status.Phase == SharePodRunning {
				running++
			}
		}
		if running == 0 {
			t.Error("no tenant running at the restart")
		}
		if _, err := c.API.Restart(); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	env.Run()
	if len(unchanged) != 0 {
		t.Fatalf("%d status writes changed nothing: %v", len(unchanged), unchanged)
	}
	for _, sp := range SharePods(c.API).List() {
		if sp.Status.Phase != SharePodSucceeded {
			t.Errorf("%s ended %s", sp.Name, sp.Status.Phase)
		}
	}
}

// TestDevMgrRequeuesLostBoundPod: a running sharePod's bound pod is deleted
// (a node eviction does the same). Under both scheduling drivers — KubeShare
// and the extender baseline — DevMgr requeues the sharePod, which is
// re-placed, rebound and runs to completion after one restart.
func TestDevMgrRequeuesLostBoundPod(t *testing.T) {
	for _, driver := range []struct {
		name    string
		install func(*kube.Cluster) error
	}{
		{"kubeshare", func(c *kube.Cluster) error { _, err := schedfw.Install(c, Config{}); return err }},
		{"extender", func(c *kube.Cluster) error { _, _, err := schedfw.InstallExtender(c, Config{}); return err }},
	} {
		t.Run(driver.name, func(t *testing.T) {
			env := sim.NewEnv()
			c, err := kube.NewCluster(env, kube.DefaultConfig(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			if err := driver.install(c); err != nil {
				t.Fatal(err)
			}
			registerTrainImage(c)
			lost := ""
			env.Go("t", func(p *sim.Proc) {
				if _, err := SharePods(c.API).Create(sharePod("sp", 0.5, 1, 0.2, 5)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
				for lost == "" {
					p.Sleep(500 * time.Millisecond)
					if sp, err := SharePods(c.API).Get("sp"); err == nil && sp.Status.Phase == SharePodRunning {
						lost = sp.Status.BoundPod
						if err := c.Pods().Delete(lost); err != nil {
							t.Errorf("delete %s: %v", lost, err)
						}
					}
				}
			})
			env.RunUntil(10 * time.Minute)
			if lost == "" {
				t.Fatal("the sharePod never ran")
			}
			sp, err := SharePods(c.API).Get("sp")
			if err != nil {
				t.Fatal(err)
			}
			if sp.Status.Phase != SharePodSucceeded || sp.Status.Restarts != 1 || sp.Status.BoundPod == lost {
				t.Fatalf("sharePod %s, %d restarts, bound pod %q after %s was deleted; want Succeeded after one requeue",
					sp.Status.Phase, sp.Status.Restarts, sp.Status.BoundPod, lost)
			}
		})
	}
}

// TestDevMgrReconcilesRestoredVGPU: an apiserver restart finds a VGPU write
// torn off the log tail, so the restored object is not what DevMgr left.
// When the lost write is the delete that ends DevMgr's drop (holder pod,
// then VGPU object), the vGPU comes back with no DevMgr state behind it:
// Active with its holder gone, or Creating with no UUID when its tenant left
// before the holder reported. When it is the write that records the
// holder's UUID, the vGPU comes back Creating while its holder runs on.
// DevMgr must reconcile each like any vGPU it owns: at quiescence no VGPU
// object is left, and the next sharePod runs to completion — created after
// quiescence, or at the restart, placed by the scheduler or pinned to the
// restored vGPU before DevMgr sees the object. Telemetry is off, so no
// event write lands behind the control plane's own.
func TestDevMgrReconcilesRestoredVGPU(t *testing.T) {
	vgpuDelete := func(ev store.Event) bool { return ev.Type == store.Deleted && ev.Object.Kind() == KindVGPU }
	uuidWrite := func(ev store.Event) bool {
		v, ok := ev.Object.(*VGPU)
		return ok && ev.Type == store.Modified && v.Status.UUID != ""
	}
	for _, tc := range []struct {
		name string
		tear func(store.Event) bool // the logged write the restart loses
		// leave makes the first tenant leave its vGPU, ending with the drop.
		leave func(t *testing.T, c *kube.Cluster, p *sim.Proc)
		// atRestart creates the next sharePod at the restart, pinned to the
		// restored vGPU if pin is set; otherwise it comes after quiescence.
		atRestart, pin bool
	}{
		{"deleted-active", vgpuDelete, leaveByFinishing, false, false},
		{"deleted-creating", vgpuDelete, leaveBeforeReport, false, false},
		{"deleted-creating-pinned", vgpuDelete, leaveBeforeReport, true, true},
		{"uuid-lost", uuidWrite, leaveByFinishing, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			cfg := kube.DefaultConfig(1, 4)
			cfg.DisableObs = true
			c, err := kube.NewCluster(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.API.EnableDurability(apiserver.DurabilityConfig{})
			if _, err := schedfw.Install(c, Config{}); err != nil {
				t.Fatal(err)
			}
			registerTrainImage(c)
			next := sharePod("next", 0.5, 1, 0.2, 2)
			if tc.pin {
				next.Spec.GPUID, next.Spec.NodeName, next.Status.Phase = "vgpu-0001", "node-0", SharePodScheduled
			}
			// A millisecond after the write to tear is logged — every control
			// loop parked again — the apiserver restarts without it.
			var last store.Event
			torn := false
			c.API.Store().OnPublish(func(ev store.Event) {
				last = ev
				if torn || !tc.tear(ev) {
					return
				}
				torn = true
				env.After(time.Millisecond, func() {
					if last != ev {
						t.Errorf("%s %s was logged after the write to tear", last.Type, api.Key(last.Object))
					}
					c.API.TearWALTail(1)
					if _, err := c.API.Restart(); err != nil {
						t.Errorf("restart: %v", err)
					}
					if tc.atRestart {
						if _, err := SharePods(c.API).Create(next); err != nil {
							t.Errorf("create: %v", err)
						}
					}
				})
			})
			env.Go("t", func(p *sim.Proc) {
				if _, err := SharePods(c.API).Create(sharePod("first", 0.5, 1, 0.2, 2)); err != nil {
					t.Errorf("create: %v", err)
				}
				tc.leave(t, c, p)
			})
			env.Run()
			if !torn {
				t.Fatal("no write to tear was logged")
			}
			if vs := VGPUs(c.API).List(); len(vs) != 0 {
				t.Errorf("restored %s left at quiescence: %s, holder %s, uuid %q",
					vs[0].Name, vs[0].Status.Phase, vs[0].Status.HolderPod, vs[0].Status.UUID)
			}
			if !tc.atRestart {
				if _, err := SharePods(c.API).Create(next); err != nil {
					t.Fatalf("create: %v", err)
				}
				env.Run()
			}
			if sp, err := SharePods(c.API).Get("next"); err != nil || sp.Status.Phase != SharePodSucceeded {
				t.Fatalf("next sharePod: %v, %+v; want Succeeded", err, sp.Status)
			}
			if n := VGPUs(c.API).Count(); n != 0 {
				t.Errorf("%d vGPU objects left", n)
			}
		})
	}
}

// leaveByFinishing lets the first tenant run to completion.
func leaveByFinishing(*testing.T, *kube.Cluster, *sim.Proc) {}

// leaveBeforeReport deletes the first tenant once its vGPU exists, before
// the holder reports a UUID.
func leaveBeforeReport(t *testing.T, c *kube.Cluster, p *sim.Proc) {
	for {
		p.Sleep(10 * time.Millisecond)
		if vs := VGPUs(c.API).List(); len(vs) > 0 {
			if vs[0].Status.UUID != "" {
				t.Error("the holder reported before the tenant left")
			}
			if err := SharePods(c.API).Delete("first"); err != nil {
				t.Errorf("delete first: %v", err)
			}
			return
		}
	}
}
