package fwk

import (
	"maps"
	"reflect"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
)

// sameMap reports whether a and b are one map (two nil sets are not).
func sameMap(a, b map[string]bool) bool {
	return a != nil && reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestTxnJournalCopiesLabelSets places a labeled request onto a snapshot
// device that already holds other labels, twice, rolling back each time.
// The journal must hold copies of the device's label sets, never the sets
// themselves — Place adds to them — so each rollback restores exactly the
// prior sets, and the snapshot's pool is still a relist's afterwards.
func TestTxnJournalCopiesLabelSets(t *testing.T) {
	srv := apiserver.New(sim.NewEnv())
	gpus := api.ResourceList{api.ResourceGPU: 4}
	if _, err := apiserver.Nodes(srv).Create(&api.Node{
		ObjectMeta: api.ObjectMeta{Name: "n-0"},
		Status:     api.NodeStatus{Capacity: gpus, Allocatable: gpus.Clone(), Ready: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.SharePods(srv).Create(&core.SharePod{
		ObjectMeta: api.ObjectMeta{Name: "sp-a"},
		Spec: core.SharePodSpec{
			Pod:        api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
			GPURequest: 0.2, GPUMem: 0.2, GPUID: "g-0", NodeName: "n-0",
			Affinity: "grp-a", AntiAffinity: "anti-a",
		},
	}); err != nil {
		t.Fatal(err)
	}
	snap := core.NewSnapshot(1)
	for _, kind := range []string{core.KindSharePod, core.KindVGPU, "Pod", "Node"} {
		q := srv.Watch(kind, true)
		for ev, ok := q.TryGet(); ok; ev, ok = q.TryGet() {
			snap.Apply(ev)
		}
		srv.StopWatch(q)
	}

	pool := snap.Pool(nil)
	d := pool.Devices[0]
	wantAff, wantAnti := maps.Clone(d.Aff), maps.Clone(d.Anti)
	txn := NewTxn(pool)
	for round := 0; round < 2; round++ {
		txn.Place(d, core.Request{Util: 0.1, Mem: 0.1, Aff: "grp-b", Anti: "anti-b"})
		saved := &txn.journal[0].saved
		if sameMap(saved.Aff, d.Aff) || sameMap(saved.Anti, d.Anti) {
			t.Fatalf("round %d: the journal shares a label set with the live device", round)
		}
		if !d.Aff["grp-b"] || !d.Anti["anti-b"] {
			t.Fatalf("round %d: placement did not label the device: %v %v", round, d.Aff, d.Anti)
		}
		txn.Rollback(0)
		if !maps.Equal(d.Aff, wantAff) || !maps.Equal(d.Anti, wantAnti) {
			t.Fatalf("round %d: rolled back to aff %v anti %v, want %v %v", round, d.Aff, d.Anti, wantAff, wantAnti)
		}
	}
	if err := core.DiffPools(snap.Pool(nil), core.BuildPool(srv, 1)); err != nil {
		t.Fatal(err)
	}
}
