package fwk

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/core/coretest"
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
// prior sets, and the snapshot's pool is still a relist's afterwards. The
// rolled-back journal keeps its storage but pins nothing.
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
	snap := core.NewSnapshot()
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
	// Rolled back, the journal's storage pins no device and no label set;
	// Reset keeps that storage for the next cycle's pool.
	for i, op := range txn.journal[:cap(txn.journal)] {
		if op.dev != nil || op.saved.Aff != nil || op.saved.Anti != nil {
			t.Fatalf("journal slot %d still holds a device or its label sets after Rollback(0)", i)
		}
	}
	grown := cap(txn.journal)
	txn.Reset(snap.Pool(nil))
	if grown == 0 || cap(txn.journal) != grown || txn.Len() != 0 {
		t.Fatalf("Reset left the journal at len %d cap %d, want 0 and %d", txn.Len(), cap(txn.journal), grown)
	}
	if err := core.DiffPools(snap.Pool(nil), core.BuildPool(srv)); err != nil {
		t.Fatal(err)
	}
}

// requireIndex fails the test unless the pool's residual order is a
// permutation of its devices sorted by (residual key, ID).
func requireIndex(t *testing.T, pool *core.Pool, when string) {
	t.Helper()
	if err := pool.VerifyIndex(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestTxnRollback pins the undo log: placements and device creations after a
// checkpoint roll back to exactly the checkpointed pool, and the residual
// order follows every step there and back.
func TestTxnRollback(t *testing.T) {
	created := 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		pools := coretest.RandomPools(rng, 2)
		want, pool := pools[0], pools[1] // want stays untouched as the reference
		pool.Fitting(core.Request{})     // index the literal pool before its first step
		txn := NewTxn(pool)
		mark := txn.Checkpoint()
		for step := 0; step < 20; step++ {
			if txn.Schedule(coretest.RandomRequest(rng)).Outcome == core.NewDevice {
				created++
			}
			requireIndex(t, pool, fmt.Sprintf("seed %d step %d", seed, step))
		}
		txn.Rollback(mark)
		if txn.Len() != 0 {
			t.Fatalf("seed %d: journal length %d after full rollback", seed, txn.Len())
		}
		if err := core.DiffPools(pool, want); err != nil {
			t.Fatalf("seed %d: rollback did not restore pool: %v", seed, err)
		}
		requireIndex(t, pool, fmt.Sprintf("seed %d after rollback", seed))
	}
	if created == 0 {
		t.Fatal("no sequence created a device: AddDevice's rollback went untested")
	}
}

// TestTxnPartialRollback checks that rolling back to a mid-sequence mark
// keeps the prefix: replaying the prefix onto a fresh pool matches.
func TestTxnPartialRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pools := coretest.RandomPools(rng, 2)
	reference, pool := pools[0], pools[1]
	var reqs []core.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, coretest.RandomRequest(rng))
	}

	pool.Fitting(core.Request{})
	txn := NewTxn(pool)
	for _, r := range reqs[:6] {
		txn.Schedule(r)
		requireIndex(t, pool, "before the mark")
	}
	mark := txn.Checkpoint()
	for _, r := range reqs[6:] {
		txn.Schedule(r)
		requireIndex(t, pool, "past the mark")
	}
	txn.Rollback(mark)
	requireIndex(t, pool, "after partial rollback")

	for _, r := range reqs[:6] {
		core.Schedule(r, reference)
	}
	if err := core.DiffPools(pool, reference); err != nil {
		t.Fatalf("partial rollback diverged from prefix replay: %v", err)
	}
}
