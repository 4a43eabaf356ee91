package kubeshare

import (
	"maps"
	"strings"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// newSim is New with the store's mutation canary installed: the facade's
// clients hand callers the same read-only snapshots every component reads,
// and no test here — nor anything it drives — may write through one.
func newSim(t *testing.T, opts ...Option) *Sim {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	storetest.Install(t, s.Cluster.API.Store())
	return s
}

func TestFacadeQuickstart(t *testing.T) {
	s := newSim(t, WithNodes(1))
	s.RegisterImage("hello-gpu", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 100*time.Millisecond)
	})
	var got *SharePod
	s.Go("main", func(p *sim.Proc) {
		_, err := s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "hello"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "hello-gpu"}}},
			},
		})
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		q := s.Watch(KindSharePod, WatchOptions{Name: "hello", Replay: true})
		defer s.StopWatch(q)
		for {
			ev, ok := q.Get(p)
			if !ok {
				t.Error("watch closed waiting for hello")
				return
			}
			if sp := ev.Object.(*SharePod); sp.Terminated() {
				got = sp
				return
			}
		}
	})
	s.Run()
	if got == nil || got.Status.Phase != SharePodSucceeded {
		t.Fatalf("sharePod = %+v", got)
	}
}

func TestFacadeRunForAdvancesTime(t *testing.T) {
	s := newSim(t)
	if s.Now() != 0 {
		t.Fatal("clock not at zero")
	}
	s.RunFor(3 * time.Second)
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestFacadeWithoutKubeShare(t *testing.T) {
	s := newSim(t, WithoutKubeShare())
	if s.KS != nil {
		t.Fatal("KubeShare installed despite WithoutKubeShare")
	}
	// SharePods are inert without controllers: creation works (no
	// validator either) but nothing schedules them; native pods still run.
	s.RegisterImage("noop", func(ctx *ContainerCtx) error { return nil })
	s.Go("main", func(p *sim.Proc) {
		if _, err := s.Pods().Create(&Pod{
			ObjectMeta: ObjectMeta{Name: "native"},
			Spec:       PodSpec{Containers: []Container{{Name: "c", Image: "noop"}}},
		}); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	s.Run()
	pod, err := s.Pods().Get("native")
	if err != nil || pod.Status.Phase != "Succeeded" {
		t.Fatalf("pod = %+v err=%v", pod, err)
	}
}

func TestFacadeExtenderOption(t *testing.T) {
	s := newSim(t, WithExtenderScheduler(), WithGPUsPerNode(2))
	s.RegisterImage("burn", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, time.Second)
	})
	s.Go("main", func(p *sim.Proc) {
		for _, n := range []string{"x", "y"} {
			if _, err := s.CreateSharePod(&SharePod{
				ObjectMeta: ObjectMeta{Name: n},
				Spec: SharePodSpec{
					GPURequest: 0.5, GPULimit: 0.5, GPUMem: 0.2,
					Pod: PodSpec{Containers: []Container{{Name: "c", Image: "burn"}}},
				},
			}); err != nil {
				t.Errorf("create %s: %v", n, err)
			}
		}
	})
	s.Run()
	for _, n := range []string{"x", "y"} {
		sp, err := s.SharePods().Get(n)
		if err != nil || sp.Status.Phase != SharePodSucceeded {
			t.Fatalf("%s: %+v err=%v", n, sp, err)
		}
		// Extender ids are round-robin per node.
		if sp.Spec.GPUID == "" {
			t.Fatalf("%s not placed", n)
		}
	}
}

func TestFacadePoolPolicyOption(t *testing.T) {
	s := newSim(t, WithPoolPolicy(Reservation))
	s.RegisterImage("quick", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "one"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.2,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "quick"}}},
			},
		})
	})
	s.RunFor(time.Minute)
	vgpus := s.VGPUs().List()
	if len(vgpus) != 1 {
		t.Fatalf("vGPUs = %d, want 1 idle (reservation)", len(vgpus))
	}
}

func TestFacadeUsageRate(t *testing.T) {
	s := newSim(t)
	s.RegisterImage("spin", func(ctx *ContainerCtx) error {
		for i := 0; i < 10000; i++ {
			if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	})
	s.Go("main", func(p *sim.Proc) {
		s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "spin"},
			Spec: SharePodSpec{
				GPURequest: 0.3, GPULimit: 0.6, GPUMem: 0.2,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "spin"}}},
			},
		})
	})
	s.RunFor(30 * time.Second)
	usage := s.Stats().Usage
	rate := usage["spin"]
	if rate < 0.5 || rate > 0.65 {
		t.Fatalf("usage rate %.3f, want ≈0.6 (throttled at limit)", rate)
	}
	if _, ok := usage["ghost"]; ok {
		t.Fatal("unknown sharePod has usage entry")
	}
}

// TestStatsIsReadOnly: sampling usage must never instantiate a device's
// sharing strategy. A backend keeps one strategy per device and the first
// one pins the device's mode, so a read that created the node default
// (token) would make a later sharing_mode: mps pod fail at library-hook
// time.
func TestStatsIsReadOnly(t *testing.T) {
	s := newSim(t, WithNodes(1), WithGPUsPerNode(1))
	s.RegisterImage("burst", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 100*time.Millisecond)
	})
	node := s.Cluster.Nodes[0]
	uuid, backend := node.GPUs[0].UUID(), s.KS.Backends[node.Name]

	// A Running sharePod as a reader may see it before any container on the
	// device has loaded the library.
	probe := &SharePod{ObjectMeta: ObjectMeta{Name: "probe"}}
	probe.Spec.NodeName = node.Name
	probe.Spec.Pod.Containers = []Container{{Name: "c"}}
	probe.Status.UUID, probe.Status.BoundPod = uuid, "probe-pod"
	if rate := s.usageRate(probe); rate != 0 {
		t.Fatalf("usage %v on a device no client has reached", rate)
	}
	s.Stats()
	if strat := backend.StrategyOf(uuid); strat != nil {
		t.Fatalf("reading usage instantiated a %s strategy", strat.Mode())
	}

	s.Go("main", func(p *sim.Proc) {
		if _, err := s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "overlap"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25, SharingMode: "mps",
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "burst"}}},
			},
		}); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	s.Go("sampler", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			s.Stats()
			p.Sleep(10 * time.Millisecond)
		}
	})
	s.Run()
	sp, err := s.SharePods().Get("overlap")
	if err != nil || sp.Status.Phase != SharePodSucceeded {
		t.Fatalf("mps sharePod = %+v, %v", sp, err)
	}
	if strat := backend.StrategyOf(uuid); strat == nil || strat.Mode() != "mps" {
		t.Fatalf("device strategy = %v, want mps", strat)
	}
}

// TestFacadeMixedSharingModesFailOneContainer: the scheduler co-places two
// sharePods asking for different sharing modes on one GPU (nothing keeps them
// apart but exclusion labels). The device serves the first mode to reach it;
// the second pod's library hook fails its container, not the simulation.
func TestFacadeMixedSharingModesFailOneContainer(t *testing.T) {
	s := newSim(t, WithNodes(1), WithGPUsPerNode(1))
	s.RegisterImage("burst", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 100*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		for _, sp := range []struct{ name, mode string }{{"a", "mps"}, {"b", "token"}} {
			if _, err := s.CreateSharePod(&SharePod{
				ObjectMeta: ObjectMeta{Name: sp.name},
				Spec: SharePodSpec{
					GPURequest: 0.3, GPULimit: 0.3, GPUMem: 0.3, SharingMode: sp.mode,
					Pod: PodSpec{Containers: []Container{{Name: "c", Image: "burst"}}},
				},
			}); err != nil {
				t.Errorf("create %s: %v", sp.name, err)
			}
		}
	})
	s.Run()
	a, errA := s.SharePods().Get("a")
	b, errB := s.SharePods().Get("b")
	if errA != nil || errB != nil {
		t.Fatalf("get: %v, %v", errA, errB)
	}
	if a.Spec.GPUID == "" || a.Spec.GPUID != b.Spec.GPUID {
		t.Fatalf("placed on %q and %q, want one shared vGPU", a.Spec.GPUID, b.Spec.GPUID)
	}
	if a.Status.Phase != SharePodSucceeded {
		t.Fatalf("a (mps) = %s %q, want Succeeded", a.Status.Phase, a.Status.Message)
	}
	want := `already shared in "mps" mode, cannot serve "token"`
	if b.Status.Phase != SharePodFailed || !strings.Contains(b.Status.Message, want) {
		t.Fatalf("b (token) = %s %q, want Failed with %q", b.Status.Phase, b.Status.Message, want)
	}
}

func TestFacadeTokenQuotaOption(t *testing.T) {
	s := newSim(t, WithTokenQuota(30*time.Millisecond))
	if s.KS.Backends["node-0"].Config().Quota != 30*time.Millisecond {
		t.Fatalf("quota = %v", s.KS.Backends["node-0"].Config().Quota)
	}
}

func TestFacadeWatchNameFilteredNoWake(t *testing.T) {
	s := newSim(t, WithNodes(1))
	s.RegisterImage("noop-gpu", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 50*time.Millisecond)
	})
	// Subscribe to a sharePod that will never exist, then generate plenty of
	// unrelated churn. The name filter must keep the queue silent.
	q := s.Watch(KindSharePod, WatchOptions{Name: "never-created", Replay: true})
	defer s.StopWatch(q)
	s.Go("main", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			name := "churn-" + string(rune('a'+i))
			if _, err := s.CreateSharePod(&SharePod{
				ObjectMeta: ObjectMeta{Name: name},
				Spec: SharePodSpec{
					GPURequest: 0.2, GPULimit: 0.5, GPUMem: 0.1,
					Pod: PodSpec{Containers: []Container{{Name: "c", Image: "noop-gpu"}}},
				},
			}); err != nil {
				t.Errorf("create %s: %v", name, err)
			}
		}
	})
	s.Run()
	if ev, ok := q.TryGet(); ok {
		t.Fatalf("name-filtered watch woke on unrelated event: %+v", ev)
	}
	// A selector-filtered watch over the same churn does deliver events.
	q2 := s.Watch(KindSharePod, WatchOptions{Replay: true})
	defer s.StopWatch(q2)
	if _, ok := q2.TryGet(); !ok {
		t.Fatal("unfiltered replay watch saw nothing")
	}
}

func TestFacadeStats(t *testing.T) {
	s := newSim(t, WithNodes(2))
	s.RegisterImage("work", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 200*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		for _, name := range []string{"a", "b"} {
			if _, err := s.CreateSharePod(&SharePod{
				ObjectMeta: ObjectMeta{Name: name},
				Spec: SharePodSpec{
					GPURequest: 0.4, GPULimit: 0.8, GPUMem: 0.2,
					Pod: PodSpec{Containers: []Container{{Name: "c", Image: "work"}}},
				},
			}); err != nil {
				t.Errorf("create %s: %v", name, err)
			}
		}
	})
	s.Run()
	st := s.Stats()
	if st.SharePods != 2 || st.TerminatedSharePods != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Nodes != 2 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	if st.Decisions == 0 {
		t.Fatal("no scheduling decisions recorded")
	}
	// All sharePods are done: vGPUs have been garbage-collected and nothing
	// is reporting usage.
	if len(st.Usage) != 0 {
		t.Fatalf("usage reported for terminated sharePods: %v", st.Usage)
	}
}

// TestFacadeTraceCausalChain drives one sharePod to completion and checks
// that its life is reconstructable from Sim.Trace() as a single causally
// linked chain crossing all six instrumented layers.
func TestFacadeTraceCausalChain(t *testing.T) {
	s := newSim(t, WithNodes(1))
	s.RegisterImage("traced", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 100*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "traced"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "traced"}}},
			},
		})
	})
	s.Run()

	chain := TraceChain(s.Trace(), "SharePod/traced")
	want := []struct{ component, op string }{
		{"apiserver", "create"},
		{"kubeshare-sched", "schedule"},
		{"devmgr", "bind"},
		{"devmgr", "holder-ready"},
		{"kubelet", "pod-sync"},
		{"devlib", "token-grant"},
		{"gpusim", "kernel-launch"},
	}
	var gotOps []string
	for _, sp := range chain {
		gotOps = append(gotOps, sp.Component+"/"+sp.Op)
	}
	idx := 0
	for _, sp := range chain {
		if idx < len(want) && sp.Component == want[idx].component && sp.Op == want[idx].op {
			idx++
		}
	}
	if idx != len(want) {
		t.Fatalf("chain missing milestone %s/%s; got %v", want[idx].component, want[idx].op, gotOps)
	}
	// Every span after the root must be causally linked within the chain.
	ids := map[int64]bool{}
	for i, sp := range chain {
		ids[sp.ID] = true
		if i == 0 {
			if sp.Parent != 0 {
				t.Fatalf("root span has parent %d", sp.Parent)
			}
			continue
		}
		if !ids[sp.Parent] {
			t.Fatalf("span #%d (%s/%s) parent #%d not in chain", sp.ID, sp.Component, sp.Op, sp.Parent)
		}
	}

	// Metrics and events from the same run.
	m := s.Metrics()
	if m.Counter("kubeshare_sched_decisions_total") == 0 {
		t.Fatal("no decisions counted")
	}
	if m.Counter("kubeshare_devmgr_vgpu_creates_total") != 1 {
		t.Fatalf("vgpu creates = %d", m.Counter("kubeshare_devmgr_vgpu_creates_total"))
	}
	if h, ok := m.Histogram("kubeshare_sched_latency_seconds"); !ok || h.Count == 0 {
		t.Fatal("scheduling-latency histogram empty")
	}
	found := false
	for _, ev := range s.Events() {
		if ev.Source == "kubelet/node-0" && ev.Reason == "Started" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no kubelet Started event in %d events", len(s.Events()))
	}
}

func TestFacadeWithoutObservability(t *testing.T) {
	s := newSim(t, WithoutObservability())
	s.RegisterImage("dark", func(ctx *ContainerCtx) error {
		return ctx.CUDA.LaunchKernel(ctx.Proc, 50*time.Millisecond)
	})
	s.Go("main", func(p *sim.Proc) {
		s.CreateSharePod(&SharePod{
			ObjectMeta: ObjectMeta{Name: "dark"},
			Spec: SharePodSpec{
				GPURequest: 0.5, GPULimit: 1, GPUMem: 0.25,
				Pod: PodSpec{Containers: []Container{{Name: "c", Image: "dark"}}},
			},
		})
	})
	s.Run()
	sp, err := s.SharePods().Get("dark")
	if err != nil || sp.Status.Phase != SharePodSucceeded {
		t.Fatalf("sharePod = %+v err=%v", sp, err)
	}
	if n := len(s.Trace()); n != 0 {
		t.Fatalf("obs-off run recorded %d spans", n)
	}
	if n := len(s.Events()); n != 0 {
		t.Fatalf("obs-off run recorded %d events", n)
	}
	m := s.Metrics()
	if len(m.Counters)+len(m.Gauges)+len(m.Histograms) != 0 {
		t.Fatalf("obs-off run registered metrics: %+v", m)
	}
}

// TestObsOffMatchesObsOn: telemetry observes the cluster and never writes
// into it. One seeded workload, run with obs on and WithoutObservability,
// leaves the store at the same revision — the same API writes — with every
// sharePod placed on the same vGPU and ending in the same phase at the same
// virtual instant.
func TestObsOffMatchesObsOn(t *testing.T) {
	type outcome struct {
		gpuID  string
		phase  core.SharePodPhase
		finish time.Duration
	}
	run := func(opts ...Option) (int64, map[string]outcome) {
		s := newSim(t, append([]Option{WithNodes(2)}, opts...)...)
		workload.RegisterImages(s.Cluster)
		jobs := workload.Generate(workload.GeneratorConfig{
			Jobs: 12, MeanInterArrival: time.Second,
			DemandMean: 0.4, DemandVar: 1,
			JobDuration: 8 * time.Second, Seed: 7,
		})
		var submitErr error
		workload.Submit(s.Env, s.Cluster.API, len(jobs), func(i int) (time.Duration, api.Object) {
			return jobs[i].Arrival, workload.SharePodFor(jobs[i])
		}, &submitErr)
		s.Run()
		if submitErr != nil {
			t.Fatal(submitErr)
		}
		out := map[string]outcome{}
		for _, sp := range s.SharePods().List() {
			out[sp.Name] = outcome{sp.Spec.GPUID, sp.Status.Phase, sp.Status.FinishTime}
		}
		return s.Cluster.API.Revision(), out
	}
	onRev, on := run()
	offRev, off := run(WithoutObservability())
	if onRev != offRev {
		t.Errorf("final store revision %d with obs on, %d with obs off", onRev, offRev)
	}
	if len(on) != 12 || !maps.Equal(on, off) {
		t.Errorf("sharePod outcomes differ:\n  obs on:  %v\n  obs off: %v", on, off)
	}
}
