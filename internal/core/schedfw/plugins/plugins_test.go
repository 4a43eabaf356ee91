package plugins_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/core/schedfw/plugins"
)

// serialID mirrors the driver's vGPU ID generator; each pool under
// comparison gets its own counter so both see the same ID sequence.
func serialID() func() string {
	n := 0
	return func() string { n++; return fmt.Sprintf("vgpu-%04d", n) }
}

var (
	affLabels  = []string{"", "g1", "g2", "g3"}
	antiLabels = []string{"", "t1", "t2"}
	exclLabels = []string{"", "x1", "x2"}
)

func randomRequest(rng *rand.Rand) core.Request {
	return core.Request{
		Util: float64(rng.Intn(20)+1) / 20, // 0.05 … 1.00
		Mem:  float64(rng.Intn(20)+1) / 20,
		Aff:  affLabels[rng.Intn(len(affLabels))],
		Anti: antiLabels[rng.Intn(len(antiLabels))],
		Excl: exclLabels[rng.Intn(len(exclLabels))],
	}
}

// randomPoolPair builds two structurally identical pools by replaying the
// same construction onto both: devices carved on random nodes, each loaded
// with a few placed requests (or left idle), plus free physical headroom.
func randomPoolPair(rng *rand.Rand) (*core.Pool, *core.Pool) {
	a := &core.Pool{FreePhysical: map[string]int{}, NewID: serialID(), MemFactor: 1}
	b := &core.Pool{FreePhysical: map[string]int{}, NewID: serialID(), MemFactor: 1}
	nodes := rng.Intn(4) + 1
	for n := 0; n < nodes; n++ {
		node := fmt.Sprintf("node%d", n)
		free := rng.Intn(4)
		if free > 0 {
			a.FreePhysical[node] = free
			b.FreePhysical[node] = free
		}
		for g := 0; g < rng.Intn(4); g++ {
			id := fmt.Sprintf("gpu-%s-%d", node, g)
			da, db := core.NewDeviceState(id, node), core.NewDeviceState(id, node)
			for t := 0; t < rng.Intn(3); t++ {
				r := randomRequest(rng)
				if !da.Fits(r) {
					continue
				}
				da.Place(r)
				db.Place(r)
			}
			a.Devices = append(a.Devices, da)
			b.Devices = append(b.Devices, db)
		}
	}
	return a, b
}

// TestEngineMatchesAlgorithm1 is the framework's equivalence property: the
// default plugin set run through the engine must make the same decision —
// outcome, device, node, reason — as core.Schedule on every request of a
// random sequence, and leave the pool in the same state, for every policy
// variant.
func TestEngineMatchesAlgorithm1(t *testing.T) {
	policies := []core.PlacementPolicy{core.PaperPolicy, core.BestBest, core.WorstWorst, core.FirstFit}
	for _, policy := range policies {
		policy := policy
		t.Run(fmt.Sprintf("policy-%d", policy), func(t *testing.T) {
			set := plugins.Default()
			for i, p := range set {
				if _, ok := p.(plugins.LocalityFit); ok {
					set[i] = plugins.LocalityFit{Policy: policy}
				}
			}
			eng := fwk.NewEngine(set)
			for seed := int64(0); seed < 200; seed++ {
				rng := rand.New(rand.NewSource(seed))
				legacy, framework := randomPoolPair(rng)
				txn := fwk.NewTxn(framework)
				for step := 0; step < 30; step++ {
					r := randomRequest(rng)
					want := core.ScheduleWithPolicy(r, legacy, policy)
					got := eng.Schedule(&fwk.Unit{Name: fmt.Sprintf("sp-%d", step), Req: r}, txn)
					if got != want {
						t.Fatalf("seed %d step %d req %+v: engine %+v, legacy %+v", seed, step, r, got, want)
					}
				}
				if err := core.DiffPools(framework, legacy); err != nil {
					t.Fatalf("seed %d: pools diverged after sequence: %v", seed, err)
				}
			}
		})
	}
}

// TestTxnRollback pins the undo log: placements and device creations after a
// checkpoint roll back to exactly the checkpointed pool.
func TestTxnRollback(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		want, pool := randomPoolPair(rng) // want stays untouched as the reference
		eng := fwk.NewEngine(plugins.Default())
		txn := fwk.NewTxn(pool)
		mark := txn.Checkpoint()
		for step := 0; step < 20; step++ {
			eng.Schedule(&fwk.Unit{Req: randomRequest(rng)}, txn)
		}
		txn.Rollback(mark)
		if txn.Len() != 0 {
			t.Fatalf("seed %d: journal length %d after full rollback", seed, txn.Len())
		}
		if err := core.DiffPools(pool, want); err != nil {
			t.Fatalf("seed %d: rollback did not restore pool: %v", seed, err)
		}
	}
}

// TestTxnPartialRollback checks that rolling back to a mid-sequence mark
// keeps the prefix: replaying the prefix onto a fresh pool matches.
func TestTxnPartialRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	reference, pool := randomPoolPair(rng)
	var reqs []core.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, randomRequest(rng))
	}

	eng := fwk.NewEngine(plugins.Default())
	txn := fwk.NewTxn(pool)
	for _, r := range reqs[:6] {
		eng.Schedule(&fwk.Unit{Req: r}, txn)
	}
	mark := txn.Checkpoint()
	for _, r := range reqs[6:] {
		eng.Schedule(&fwk.Unit{Req: r}, txn)
	}
	txn.Rollback(mark)

	for _, r := range reqs[:6] {
		core.Schedule(r, reference)
	}
	if err := core.DiffPools(pool, reference); err != nil {
		t.Fatalf("partial rollback diverged from prefix replay: %v", err)
	}
}
