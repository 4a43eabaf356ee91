package apiserver_test

import (
	"reflect"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/sim"
)

// carrier is one status-subresource kind as TestStatusSubresourceIsolation
// drives it: obj builds a fresh object named "a" labelled app=x (Create
// publishes what it is passed, so each write creates its own), spec changes
// its spec (a Node's is its metadata) and status its status.
type carrier[T api.StatusCarrier] struct {
	client func(*apiserver.Server) apiserver.Client[T]
	obj    func() T
	spec   func(T)
	status func(T)
}

// TestStatusSubresourceIsolation holds the status subresource's contract on
// every kind that has one, through all three writes: a spec write (Mutate)
// drops the status its closure wrote, a status write (MutateStatus) drops the
// spec and the labels its closure wrote — so label watches see the stored
// ones —, a bind (Bind) keeps all of them, and a write that conflicts
// retries on a fresh working object until it lands. The canary checks that no shared snapshot was written on the way.
func TestStatusSubresourceIsolation(t *testing.T) {
	meta := func() api.ObjectMeta { return api.ObjectMeta{Name: "a", Labels: map[string]string{"app": "x"}} }
	t.Run("Pod", carrier[*api.Pod]{
		client: apiserver.Pods,
		obj: func() *api.Pod {
			return &api.Pod{ObjectMeta: meta(), Spec: api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}}}
		},
		spec:   func(p *api.Pod) { p.Spec.NodeName = "n1" },
		status: func(p *api.Pod) { p.Status.Phase = api.PodRunning },
	}.run)
	t.Run("Node", carrier[*api.Node]{
		client: apiserver.Nodes,
		obj: func() *api.Node {
			return &api.Node{ObjectMeta: meta(), Status: api.NodeStatus{Capacity: api.ResourceList{"cpu": 4}}}
		},
		spec:   func(n *api.Node) { n.Annotations = map[string]string{"zone": "b"} },
		status: func(n *api.Node) { n.Status.Ready, n.Status.Allocatable = true, api.ResourceList{"cpu": 2} },
	}.run)
	t.Run("SharePod", carrier[*core.SharePod]{
		client: core.SharePods,
		obj: func() *core.SharePod {
			return &core.SharePod{ObjectMeta: meta(), Spec: core.SharePodSpec{GPURequest: 0.5, GPUMem: 0.5}}
		},
		spec:   func(s *core.SharePod) { s.Spec.GPUID, s.Spec.NodeName = "g1", "n1" },
		status: func(s *core.SharePod) { s.Status.Phase = core.SharePodRunning },
	}.run)
	t.Run("VGPU", carrier[*core.VGPU]{
		client: core.VGPUs,
		obj:    func() *core.VGPU { return &core.VGPU{ObjectMeta: meta(), Spec: core.VGPUSpec{GPUID: "a"}} },
		spec:   func(v *core.VGPU) { v.Spec.NodeName = "n1" },
		status: func(v *core.VGPU) { v.Status.UUID = "GPU-1" },
	}.run)
}

func (c carrier[T]) run(t *testing.T) {
	t.Run("Mutate", func(t *testing.T) { c.write(t, store.VerbSpec) })
	t.Run("MutateStatus", func(t *testing.T) { c.write(t, store.VerbStatus) })
	t.Run("Bind", func(t *testing.T) { c.write(t, store.VerbBind) })
}

// write makes one spec, status or bind write whose closure writes both
// halves and replaces the labels with a fresh map, and, on its first call,
// has a concurrent spec write add the label extra=y, so that the write
// conflicts once.
func (c carrier[T]) write(t *testing.T, verb store.Verb) {
	srv := apiserver.New(sim.NewEnv())
	storetest.Install(t, srv.Store())
	cl := c.client(srv)
	created, err := cl.Create(c.obj())
	if err != nil {
		t.Fatal(err)
	}
	var seen []T
	var sawConcurrent []bool
	closure := func(cur T) error {
		seen = append(seen, cur)
		sawConcurrent = append(sawConcurrent, cur.GetMeta().Labels["extra"] == "y")
		if len(seen) == 1 {
			if _, err := cl.Mutate("a", func(o T) error {
				o.GetMeta().Labels["extra"] = "y"
				return nil
			}); err != nil {
				return err
			}
		}
		c.spec(cur)
		c.status(cur)
		// A fresh map: the closure's own field, never the shared one.
		cur.GetMeta().Labels = map[string]string{"app": "y"}
		return nil
	}
	write, kept := cl.Mutate, c.spec
	switch verb {
	case store.VerbStatus:
		write, kept = cl.MutateStatus, c.status
	case store.VerbBind:
		write, kept = cl.Bind, func(o T) { c.spec(o); c.status(o) }
	}
	got, err := write("a", closure)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || api.Object(seen[0]) == api.Object(seen[1]) || !reflect.DeepEqual(sawConcurrent, []bool{false, true}) {
		t.Fatalf("closure ran on %d objects seeing the concurrent write %v, want twice: once more, on a fresh object carrying it",
			len(seen), sawConcurrent)
	}

	want := created.DeepCopyObject().(T)
	want.GetMeta().Labels["extra"] = "y"
	kept(want)
	if verb != store.VerbStatus {
		want.GetMeta().Labels = map[string]string{"app": "y"}
	}
	want.GetMeta().ResourceVersion = got.GetMeta().ResourceVersion
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("published %+v\nwant      %+v", got, want)
	}
	if stored, err := cl.Get("a"); err != nil || api.Object(stored) != api.Object(got) {
		t.Fatalf("Get = %v, %v; want the published revision", stored, err)
	}
	// A label watch is shown the closure's labels after a spec write or a
	// bind, the stored ones after a status write.
	for key, wantFound := range map[string]bool{"app": true, "extra": verb == store.VerbStatus} {
		q := srv.WatchFiltered(got.Kind(), apiserver.WatchOptions{Label: key, Replay: true})
		if found := q.Len() == 1; found != wantFound {
			t.Errorf("a watch on label %s replayed it: %v, want %v", key, found, wantFound)
		}
		srv.StopWatch(q)
	}
}
