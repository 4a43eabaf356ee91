package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
)

// newSnapRig wires an API server with a Snapshot fed from real watch
// queues. Events are enqueued synchronously at mutation time, so the drain
// callback folds them into the snapshot without running the simulation.
func newSnapRig() (*apiserver.Server, *core.Snapshot, func()) {
	env := sim.NewEnv()
	srv := apiserver.New(env)
	snap := core.NewSnapshot()
	var queues []*sim.Queue[store.Event]
	for _, kind := range []string{core.KindSharePod, core.KindVGPU, "Pod", "Node"} {
		queues = append(queues, srv.Watch(kind, true))
	}
	drain := func() {
		for _, q := range queues {
			for {
				ev, ok := q.TryGet()
				if !ok {
					break
				}
				snap.Apply(ev)
			}
		}
	}
	return srv, snap, drain
}

// requirePoolsEqual compares a snapshot-materialized pool with a freshly
// rebuilt one field by field (both emit devices sorted by ID).
func requirePoolsEqual(t *testing.T, got, want *core.Pool) {
	t.Helper()
	if err := core.DiffPools(got, want); err != nil {
		t.Fatal(err)
	}
}

func snapTestSP(name string, i int) *core.SharePod {
	return &core.SharePod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: core.SharePodSpec{
			Pod:        api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
			GPURequest: 0.1 + float64(i%5)*0.05,
			GPUMem:     0.1 + float64(i%4)*0.05,
		},
	}
}

// clonePool deep-copies a pool's devices and free-GPU counts.
func clonePool(p *core.Pool) *core.Pool {
	out := &core.Pool{FreePhysical: map[string]int{}}
	for _, d := range p.Devices {
		c := *d
		c.Aff, c.Anti = maps.Clone(d.Aff), maps.Clone(d.Anti)
		out.Devices = append(out.Devices, &c)
	}
	for n, free := range p.FreePhysical {
		out.FreePhysical[n] = free
	}
	return out
}

// TestSnapshotMatchesRebuildRandomized runs a randomized sequence of
// SharePod / VGPU / Pod / Node mutations and checks after every step that
// the snapshot's persistent pool is identical to a full BuildPool rebuild,
// its residual order
// intact, and that Pending is the server's pending sharePods oldest first.
// Every third step happens inside a borrow, as a scheduling cycle makes
// one: the pool is taken, a batch (some of it labeled) is staged on it
// through a transaction, the
// step's delta lands in the snapshot, and the transaction is rolled back —
// after which the pool must be, pointer for pointer and field for field,
// what was borrowed: a delta only marks, and the next Pool call folds it in.
func TestSnapshotMatchesRebuildRandomized(t *testing.T) {
	// gpu_mem is a hard share, so the memory capacity factor is always 1.
	t.Run("memFactor=1", func(t *testing.T) {
		srv, snap, drain := newSnapRig()
		rng := rand.New(rand.NewSource(11))
		affLabels := []string{"", "train-a", "train-b"}
		gpuIDs := []string{"g-00", "g-01", "g-02", "g-03", "g-04", "g-05"}
		nodes := []string{"n-0", "n-1", "n-2"}

		for _, n := range nodes {
			capacity := api.ResourceList{api.ResourceCPU: 32000, api.ResourceGPU: 4}
			apiserver.Nodes(srv).Create(&api.Node{
				ObjectMeta: api.ObjectMeta{Name: n},
				Status:     api.NodeStatus{Capacity: capacity, Allocatable: capacity.Clone(), Ready: true},
			})
		}

		sps := core.SharePods(srv)
		vgpus := core.VGPUs(srv)
		pods := apiserver.Pods(srv)
		serial, fresh := 0, 0
		newID := func() string { fresh++; return fmt.Sprintf("g-new-%03d", fresh) }
		for step := 0; step < 1200; step++ {
			var lent, before *core.Pool
			var held []*core.DeviceState
			var txn *fwk.Txn
			if step%3 == 0 {
				lent = snap.Pool(newID)
				before, held = clonePool(lent), slices.Clone(lent.Devices)
				txn = fwk.NewTxn(lent)
				for i := 0; i < 4; i++ {
					r := core.RequestOf(snapTestSP("staged", rng.Intn(20)))
					r.Aff, r.Anti = affLabels[rng.Intn(len(affLabels))], affLabels[rng.Intn(len(affLabels))]
					txn.Schedule(r)
				}
			}
			switch rng.Intn(10) {
			case 0, 1: // create a pending or pre-placed sharePod
				serial++
				sp := snapTestSP(fmt.Sprintf("sp-%03d", serial), serial)
				if rng.Intn(2) == 0 {
					i := rng.Intn(len(gpuIDs))
					sp.Spec.GPUID = gpuIDs[i]
					sp.Spec.NodeName = nodes[i%len(nodes)]
					sp.Spec.Affinity = affLabels[rng.Intn(len(affLabels))]
					sp.Spec.AntiAffinity = affLabels[rng.Intn(len(affLabels))]
					if rng.Intn(4) == 0 {
						sp.Spec.Exclusion = "solo"
					}
				}
				sps.Create(sp)
			case 2, 3: // place a pending sharePod (spec write)
				for _, sp := range sps.List() {
					if !sp.Placed() && !sp.Terminated() {
						i := rng.Intn(len(gpuIDs))
						sps.Mutate(sp.Name, func(cur *core.SharePod) error {
							cur.Spec.GPUID = gpuIDs[i]
							cur.Spec.NodeName = nodes[i%len(nodes)]
							cur.Spec.Affinity = affLabels[rng.Intn(len(affLabels))]
							return nil
						})
						break
					}
				}
			case 4: // terminate a placed sharePod (status write)
				if list := sps.List(); len(list) > 0 {
					sp := list[rng.Intn(len(list))]
					sps.MutateStatus(sp.Name, func(cur *core.SharePod) error {
						cur.Status.Phase = core.SharePodSucceeded
						return nil
					})
				}
			case 5: // delete a sharePod
				if list := sps.List(); len(list) > 0 {
					sps.Delete(list[rng.Intn(len(list))].Name)
				}
			case 6: // materialize a VGPU object
				i := rng.Intn(len(gpuIDs))
				vgpus.Create(&core.VGPU{
					ObjectMeta: api.ObjectMeta{Name: gpuIDs[i]},
					Spec:       core.VGPUSpec{GPUID: gpuIDs[i], NodeName: nodes[i%len(nodes)]},
					Status:     core.VGPUStatus{Phase: core.VGPUActive},
				})
			case 7: // delete a VGPU object
				if list := vgpus.List(); len(list) > 0 {
					vgpus.Delete(list[rng.Intn(len(list))].Name)
				}
			case 8: // create a native GPU pod (consumes physical capacity)
				serial++
				pods.Create(&api.Pod{
					ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("native-%03d", serial)},
					Spec: api.PodSpec{
						NodeName: nodes[rng.Intn(len(nodes))],
						Containers: []api.Container{{
							Name: "c", Image: "i",
							Requests: api.ResourceList{api.ResourceGPU: 1},
						}},
					},
				})
			case 9: // terminate or delete a native pod
				if list := pods.List(); len(list) > 0 {
					pod := list[rng.Intn(len(list))]
					if rng.Intn(2) == 0 {
						pods.MutateStatus(pod.Name, func(cur *api.Pod) error {
							cur.Status.Phase = api.PodSucceeded
							return nil
						})
					} else {
						pods.Delete(pod.Name)
					}
				}
			}
			drain()
			if lent != nil {
				txn.Rollback(0)
				requirePoolsEqual(t, lent, before)
				if !slices.Equal(lent.Devices, held) {
					t.Fatalf("step %d: the borrowed pool's devices changed hands under a delta", step)
				}
				if err := lent.VerifyIndex(); err != nil {
					t.Fatalf("step %d, handed back: %v", step, err)
				}
			}
			want := core.BuildPool(srv)
			got := snap.Pool(nil)
			requirePoolsEqual(t, got, want)
			if err := got.VerifyIndex(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			var pending []*core.SharePod
			for _, sp := range sps.List() {
				if !sp.Placed() && !sp.Terminated() {
					pending = append(pending, sp)
				}
			}
			core.SortByAge(pending)
			if !slices.Equal(snap.Pending(), pending) {
				t.Fatalf("step %d: Pending is not the server's pending sharePods oldest first", step)
			}
		}
	})
}

// TestSnapshotApplyIdempotent pins the write-through contract: the
// scheduler applies its own placement immediately and later sees the same
// event from the watch stream; the second application must be a no-op.
func TestSnapshotApplyIdempotent(t *testing.T) {
	srv, snap, drain := newSnapRig()
	capacity := api.ResourceList{api.ResourceGPU: 4}
	apiserver.Nodes(srv).Create(&api.Node{
		ObjectMeta: api.ObjectMeta{Name: "n-0"},
		Status:     api.NodeStatus{Capacity: capacity, Allocatable: capacity.Clone(), Ready: true},
	})
	sp := snapTestSP("sp-1", 1)
	sp.Spec.GPUID = "g-0"
	sp.Spec.NodeName = "n-0"
	stored, err := core.SharePods(srv).Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	drain()
	// Write-through: apply the already-seen object again, twice.
	snap.Apply(store.Event{Type: store.Modified, Object: stored})
	snap.Apply(store.Event{Type: store.Modified, Object: stored})
	got := snap.Pool(nil)
	want := core.BuildPool(srv)
	requirePoolsEqual(t, got, want)
	if got.Devices[0].Util >= 1 {
		t.Fatalf("tenant not accounted: util %v", got.Devices[0].Util)
	}
}

// The end-to-end scheduler capacity invariant lives in
// capacity_invariant_test.go (package core_test): it drives the schedfw
// driver, which package-internal tests cannot import without a cycle.
