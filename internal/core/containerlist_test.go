package core_test

import (
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	. "kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// containerLists returns every node's non-empty container list.
func containerLists(ks *KubeShare) map[string][]string {
	out := map[string][]string{}
	for _, node := range slices.Sorted(maps.Keys(ks.Backends)) {
		if pods := ks.Backends[node].ContainerList(); len(pods) > 0 {
			out[node] = pods
		}
	}
	return out
}

// waitBound parks p until sharePod name's bound pod runs and returns it.
func waitBound(t *testing.T, c *kube.Cluster, p *sim.Proc, name string) *api.Pod {
	t.Helper()
	for i := 0; i < 1000; i++ {
		p.Sleep(10 * time.Millisecond)
		sp, err := SharePods(c.API).Get(name)
		if err != nil || sp.Status.BoundPod == "" {
			continue
		}
		if pod, err := c.Pods().Get(sp.Status.BoundPod); err == nil && pod.Status.Phase == api.PodRunning {
			return pod
		}
	}
	t.Fatalf("sharePod %s never ran", name)
	return nil
}

// TestContainerListUnlistedPodFailsItsContainer: a pod labeled as a bound pod
// that DevMgr never filed on its node's container list — here one naming a
// running tenant's device — fails its container at the library hook, and
// the tenant beside it runs on to completion.
func TestContainerListUnlistedPodFailsItsContainer(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("t", func(p *sim.Proc) {
		s.create(t, sharePod("tenant", 0.5, 1, 0.2, 5))
		bound := waitBound(t, s.c, p, "tenant")
		ghost := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: "ghost", Labels: map[string]string{LabelSharePod: "tenant"}},
			Spec: api.PodSpec{NodeName: bound.Spec.NodeName, Containers: []api.Container{{
				Name: "main", Image: "train",
				Env: map[string]string{"NVIDIA_VISIBLE_DEVICES": bound.Spec.Containers[0].Env["NVIDIA_VISIBLE_DEVICES"]},
			}}},
		}
		if _, err := s.c.Pods().Create(ghost); err != nil {
			t.Errorf("create ghost: %v", err)
		}
	})
	s.env.Run()
	ghost, err := s.c.Pods().Get("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if want := "pod ghost is not on the node's container list"; ghost.Status.Phase != api.PodFailed || !strings.Contains(ghost.Status.Message, want) {
		t.Errorf("ghost = %s %q, want Failed with %q", ghost.Status.Phase, ghost.Status.Message, want)
	}
	if sp := s.get(t, "tenant"); sp.Status.Phase != SharePodSucceeded {
		t.Errorf("tenant = %s %q, want Succeeded", sp.Status.Phase, sp.Status.Message)
	}
	if lists := containerLists(s.ks); len(lists) != 0 {
		t.Errorf("container lists at quiescence: %v", lists)
	}
}

// TestContainerListEmptyAfterTornCreate: DevMgr's bound-pod watch is down
// when it creates a bound pod, a torn log tail reverts the Create in that
// instant, and the sharePod is deleted at the restart, so nothing creates
// the pod again. The watch never showed the pod, so its relist finds nothing
// to delete; the relist must still take the pod off the container list.
func TestContainerListEmptyAfterTornCreate(t *testing.T) {
	env := sim.NewEnv()
	cfg := kube.DefaultConfig(1, 4)
	cfg.DisableObs = true
	c, err := kube.NewCluster(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.API.EnableDurability(apiserver.DurabilityConfig{CheckpointInterval: -1})
	ks, err := schedfw.Install(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	registerTrainImage(c)
	for _, r := range c.API.Reflectors("Pod") {
		if r.Options().Label == LabelSharePod {
			r.DropFor(5 * time.Second)
		}
	}

	// A poller keeps the log's length from before the bound pod's Create;
	// the Create's publish schedules the tear ahead of every watcher's wake.
	created, filed := false, []string(nil)
	logged := 0
	c.API.Store().OnPublish(func(ev store.Event) {
		if pod, ok := ev.Object.(*api.Pod); !ok || ev.Type != store.Added || pod.Labels[LabelSharePod] == "" || created {
			return
		}
		created = true
		env.After(0, func() {
			filed = ks.Backends["node-0"].ContainerList()
			_, now, _ := c.API.Store().DurableSizes()
			c.API.TearWALTail(now - logged - 1) // the first reverted frame keeps one byte
			if st, err := c.API.Restart(); err != nil || !st.TornTail {
				t.Errorf("restart: %v, %+v", err, st)
			}
			if err := SharePods(c.API).Delete("sp"); err != nil {
				t.Errorf("delete sp: %v", err)
			}
		})
	})
	env.Go("poll", func(p *sim.Proc) {
		for !created {
			_, logged, _ = c.API.Store().DurableSizes()
			p.Sleep(time.Millisecond)
		}
	})
	if _, err := SharePods(c.API).Create(sharePod("sp", 0.5, 1, 0.2, 2)); err != nil {
		t.Fatal(err)
	}
	env.Run()
	if !created || len(filed) != 1 {
		t.Fatalf("bound pod created %v, container list at the tear %v; want one filed pod", created, filed)
	}
	if pods := c.Pods().List(); len(pods) != 0 {
		t.Errorf("%d pods left, first %s", len(pods), pods[0].Name)
	}
	if lists := containerLists(ks); len(lists) != 0 {
		t.Errorf("container lists at quiescence: %v", lists)
	}
}

// TestContainerListEmptyAfterNodeEviction: a node crashes under a running
// bound pod. The lifecycle controller evicts it, the deletion takes it off
// the dead node's container list, and the sharePod, requeued, runs to
// completion on the other node and leaves that list empty too. The node
// comes back after the eviction.
func TestContainerListEmptyAfterNodeEviction(t *testing.T) {
	s := newStack(t, 2, Config{})
	var crashed string
	s.env.Go("chaos", func(p *sim.Proc) {
		s.create(t, sharePod("sp", 0.5, 1, 0.2, 30))
		bound := waitBound(t, s.c, p, "sp")
		crashed = bound.Spec.NodeName
		if got := s.ks.Backends[crashed].ContainerList(); !slices.Equal(got, []string{bound.Name}) {
			t.Errorf("%s's container list = %v before the crash, want [%s]", crashed, got, bound.Name)
		}
		n, _ := s.c.Node(crashed)
		n.Kubelet.Crash()
		p.Sleep(30 * time.Second) // past NotReady and the eviction timeout
		if err := n.Kubelet.Restart(); err != nil {
			t.Errorf("restart %s: %v", crashed, err)
		}
	})
	s.env.Run()
	sp := s.get(t, "sp")
	if sp.Status.Phase != SharePodSucceeded || sp.Status.Restarts == 0 || sp.Spec.NodeName == crashed {
		t.Errorf("sp = %s on %s after %d restarts, want Succeeded away from %s", sp.Status.Phase, sp.Spec.NodeName, sp.Status.Restarts, crashed)
	}
	if lists := containerLists(s.ks); len(lists) != 0 {
		t.Errorf("container lists at quiescence: %v", lists)
	}
}
