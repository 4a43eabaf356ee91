package experiments

import (
	"fmt"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store"
)

// TestPlacementAllocsHeldExactly pins what the scheduler's pool costs per
// placement on devices without labels: staging a placement on a pool device
// and rolling it back allocates nothing once the journal has grown, the
// snapshot refreshes a device it already holds after a tenant delta without
// allocating, Algorithm 1 deciding and placing straight onto a pool
// (core.Schedule) allocates nothing, and Fig 11's decision
// (BenchmarkFig11SchedulingTime's allocs/op) allocates one thing at every N —
// its journal's first entry (the transaction itself stays on the stack).
func TestPlacementAllocsHeldExactly(t *testing.T) {
	snap := core.NewSnapshot()
	snap.Apply(store.Event{Type: store.Added, Object: &api.Node{
		ObjectMeta: api.ObjectMeta{Name: "n-0"},
		Status:     api.NodeStatus{Allocatable: api.ResourceList{api.ResourceGPU: 4}, Ready: true},
	}})
	snap.Apply(store.Event{Type: store.Added, Object: &core.VGPU{
		ObjectMeta: api.ObjectMeta{Name: "g-0"},
		Spec:       core.VGPUSpec{GPUID: "g-0", NodeName: "n-0"},
	}})
	tenant := func(name string, util float64) *core.SharePod {
		return &core.SharePod{
			ObjectMeta: api.ObjectMeta{Name: name},
			Spec:       core.SharePodSpec{GPURequest: util, GPUMem: 0.1, GPUID: "g-0", NodeName: "n-0"},
		}
	}
	snap.Placed(tenant("sp-a", 0.2))
	snap.Placed(tenant("sp-b", 0.3))
	pool := snap.Pool(nil)
	d := pool.Devices[0]

	t.Run("TxnPlaceRollback", func(t *testing.T) {
		txn := fwk.NewTxn(pool)
		r := core.Request{Util: 0.1, Mem: 0.1}
		if allocs := testing.AllocsPerRun(100, func() {
			txn.Place(d, r)
			txn.Rollback(0)
		}); allocs != 0 {
			t.Errorf("Txn.Place+Rollback: %v allocations, want 0", allocs)
		}
	})

	t.Run("SnapshotPoolRefresh", func(t *testing.T) {
		deltas := []*core.SharePod{tenant("sp-b", 0.4), tenant("sp-b", 0.3)}
		i := 0
		if allocs := testing.AllocsPerRun(100, func() {
			snap.Placed(deltas[i%2])
			i++
			if snap.Pool(nil).Devices[0] != d {
				t.Fatal("the refresh replaced the pool's device")
			}
		}); allocs != 0 {
			t.Errorf("tenant delta + Snapshot.Pool: %v allocations, want 0", allocs)
		}
	})

	t.Run("CoreSchedule", func(t *testing.T) {
		pool := &core.Pool{FreePhysical: map[string]int{}}
		for i := 0; i < 64; i++ {
			d := core.NewDeviceState(fmt.Sprintf("g-%02d", i), "n-0")
			d.Place(core.Request{Util: 0.2 + float64(i%8)/10, Mem: 0.3})
			pool.Devices = append(pool.Devices, d)
		}
		r := core.Request{Util: 0.001, Mem: 0.001}
		core.Schedule(r, pool) // the first call sorts the residual order
		if allocs := testing.AllocsPerRun(100, func() {
			if dec := core.Schedule(r, pool); dec.Outcome != core.Assigned {
				t.Fatalf("core.Schedule: %v %s, want Assigned", dec.Outcome, dec.Reason)
			}
		}); allocs != 0 {
			t.Errorf("core.Schedule: %v allocations, want 0", allocs)
		}
	})

	for _, n := range []int{10, 200} {
		t.Run(fmt.Sprintf("Fig11Decision/sharepods=%d", n), func(t *testing.T) {
			decide, err := NewSchedulingDecision(n)
			if err != nil {
				t.Fatal(err)
			}
			decide() // the first borrow sorts the residual order
			if allocs := testing.AllocsPerRun(100, func() { decide() }); allocs != 1 {
				t.Errorf("Fig 11 decision: %v allocations, want 1", allocs)
			}
		})
	}
}
