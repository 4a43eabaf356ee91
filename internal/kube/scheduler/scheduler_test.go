package scheduler

import (
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
)

// rig creates an apiserver with a started scheduler; no kubelets, so pods
// stay in whatever phase the test sets.
func rig() (*sim.Env, *apiserver.Server) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	New(env, srv).Start()
	return env, srv
}

func addNode(srv *apiserver.Server, name string, cpu int64, gpus int64, labels map[string]string) {
	capacity := api.ResourceList{api.ResourceCPU: cpu, api.ResourceGPU: gpus}
	node := &api.Node{
		ObjectMeta: api.ObjectMeta{Name: name, Labels: labels},
		Status:     api.NodeStatus{Capacity: capacity, Allocatable: capacity.Clone(), Ready: true},
	}
	if _, err := apiserver.Nodes(srv).Create(node); err != nil {
		panic(err)
	}
}

func addPod(srv *apiserver.Server, name string, req api.ResourceList, sel map[string]string) {
	pod := &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: api.PodSpec{
			NodeSelector: sel,
			Containers:   []api.Container{{Name: "c", Image: "i", Requests: req}},
		},
	}
	if _, err := apiserver.Pods(srv).Create(pod); err != nil {
		panic(err)
	}
}

func nodeOf(t *testing.T, srv *apiserver.Server, pod string) string {
	t.Helper()
	p, err := apiserver.Pods(srv).Get(pod)
	if err != nil {
		t.Fatal(err)
	}
	return p.Spec.NodeName
}

func TestBindsToOnlyNode(t *testing.T) {
	env, srv := rig()
	addNode(srv, "n0", 1000, 0, nil)
	env.Go("t", func(p *sim.Proc) { addPod(srv, "a", api.ResourceList{api.ResourceCPU: 500}, nil) })
	env.Run()
	if nodeOf(t, srv, "a") != "n0" {
		t.Fatalf("pod not bound")
	}
}

func TestRespectsCapacity(t *testing.T) {
	env, srv := rig()
	addNode(srv, "n0", 1000, 0, nil)
	env.Go("t", func(p *sim.Proc) {
		addPod(srv, "a", api.ResourceList{api.ResourceCPU: 700}, nil)
		addPod(srv, "b", api.ResourceList{api.ResourceCPU: 700}, nil)
	})
	env.RunUntil(10 * time.Second)
	bound := 0
	for _, name := range []string{"a", "b"} {
		if nodeOf(t, srv, name) != "" {
			bound++
		}
	}
	if bound != 1 {
		t.Fatalf("bound = %d, want 1 (capacity 1000, two 700m pods)", bound)
	}
}

func TestExtendedResourceAggregateCounting(t *testing.T) {
	env, srv := rig()
	addNode(srv, "n0", 100000, 4, nil)
	env.Go("t", func(p *sim.Proc) {
		for _, n := range []string{"g1", "g2", "g3", "g4", "g5"} {
			addPod(srv, n, api.ResourceList{api.ResourceGPU: 1}, nil)
		}
	})
	env.RunUntil(10 * time.Second)
	bound := 0
	for _, pod := range apiserver.Pods(srv).List() {
		if pod.Spec.NodeName != "" {
			bound++
		}
	}
	if bound != 4 {
		t.Fatalf("bound = %d, want 4 (GPU count)", bound)
	}
}

func TestPendingPodScheduledWhenCapacityFrees(t *testing.T) {
	env, srv := rig()
	addNode(srv, "n0", 1000, 0, nil)
	env.Go("t", func(p *sim.Proc) {
		addPod(srv, "big", api.ResourceList{api.ResourceCPU: 900}, nil)
		addPod(srv, "waiting", api.ResourceList{api.ResourceCPU: 500}, nil)
		p.Sleep(time.Second)
		if nodeOf(t, srv, "waiting") != "" {
			t.Error("waiting pod bound while capacity full")
		}
		// Terminate the big pod; the scheduler must react to the event.
		apiserver.Pods(srv).MutateStatus("big", func(cur *api.Pod) error {
			cur.Status.Phase = api.PodSucceeded
			return nil
		})
	})
	env.RunUntil(10 * time.Second)
	if nodeOf(t, srv, "waiting") == "" {
		t.Fatal("waiting pod never scheduled after capacity freed")
	}
}

func TestNodeSelectorFiltering(t *testing.T) {
	env, srv := rig()
	addNode(srv, "plain", 4000, 0, nil)
	addNode(srv, "gpu", 1000, 0, map[string]string{"accel": "v100"})
	env.Go("t", func(p *sim.Proc) {
		addPod(srv, "picky", api.ResourceList{api.ResourceCPU: 100}, map[string]string{"accel": "v100"})
	})
	env.Run()
	if got := nodeOf(t, srv, "picky"); got != "gpu" {
		t.Fatalf("node = %q, want gpu", got)
	}
}

func TestLeastAllocatedSpreads(t *testing.T) {
	env, srv := rig()
	addNode(srv, "n0", 1000, 0, nil)
	addNode(srv, "n1", 1000, 0, nil)
	env.Go("t", func(p *sim.Proc) {
		addPod(srv, "a", api.ResourceList{api.ResourceCPU: 400}, nil)
		p.Sleep(time.Second)
		addPod(srv, "b", api.ResourceList{api.ResourceCPU: 400}, nil)
	})
	env.Run()
	if nodeOf(t, srv, "a") == nodeOf(t, srv, "b") {
		t.Fatal("least-allocated scoring stacked both pods")
	}
}

func TestNotReadyNodeSkipped(t *testing.T) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	New(env, srv).Start()
	node := &api.Node{
		ObjectMeta: api.ObjectMeta{Name: "down"},
		Status: api.NodeStatus{
			Capacity:    api.ResourceList{api.ResourceCPU: 1000},
			Allocatable: api.ResourceList{api.ResourceCPU: 1000},
			Ready:       false,
		},
	}
	apiserver.Nodes(srv).Create(node)
	env.Go("t", func(p *sim.Proc) { addPod(srv, "a", nil, nil) })
	env.RunUntil(5 * time.Second)
	if nodeOf(t, srv, "a") != "" {
		t.Fatal("pod bound to a not-ready node")
	}
}

func TestPreBoundPodLeftAlone(t *testing.T) {
	env, srv := rig()
	addNode(srv, "n0", 1000, 0, nil)
	env.Go("t", func(p *sim.Proc) {
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "pinned"},
			Spec: api.PodSpec{
				NodeName:   "elsewhere",
				Containers: []api.Container{{Name: "c", Image: "i"}},
			},
		}
		apiserver.Pods(srv).Create(pod)
	})
	env.Run()
	if got := nodeOf(t, srv, "pinned"); got != "elsewhere" {
		t.Fatalf("scheduler rebound an explicitly placed pod to %q", got)
	}
}

func TestBindLatencyApplied(t *testing.T) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	New(env, srv).Start()
	addNode(srv, "n0", 1000, 0, nil)
	env.Go("t", func(p *sim.Proc) { addPod(srv, "a", nil, nil) })
	env.Run()
	pod, _ := apiserver.Pods(srv).Get("a")
	if pod.Status.ScheduledTime < bindLatency {
		t.Fatalf("scheduled at %v, want ≥%v", pod.Status.ScheduledTime, bindLatency)
	}
}
