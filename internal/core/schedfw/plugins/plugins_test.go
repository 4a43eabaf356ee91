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

// randomPoolPair builds two structurally identical pools (see randomPools).
func randomPoolPair(rng *rand.Rand) (*core.Pool, *core.Pool) {
	pools := randomPools(rng, 2, 1)
	return pools[0], pools[1]
}

// randomPools builds n structurally identical pools by replaying the same
// construction onto each: devices carved on random nodes, each loaded with a
// few placed requests (or left idle), plus free physical headroom.
func randomPools(rng *rand.Rand, n int, memFactor float64) []*core.Pool {
	pools := make([]*core.Pool, n)
	for i := range pools {
		pools[i] = &core.Pool{FreePhysical: map[string]int{}, NewID: serialID(), MemFactor: memFactor}
	}
	nodes := rng.Intn(4) + 1
	for n := 0; n < nodes; n++ {
		node := fmt.Sprintf("node%d", n)
		free := rng.Intn(4)
		for g := 0; g < rng.Intn(4); g++ {
			id := fmt.Sprintf("gpu-%s-%d", node, g)
			var reqs []core.Request
			for t := 0; t < rng.Intn(3); t++ {
				reqs = append(reqs, randomRequest(rng))
			}
			for _, p := range pools {
				d := core.NewDeviceState(id, node)
				d.MemCapacity, d.Mem = memFactor, memFactor
				for _, r := range reqs {
					if d.Fits(r) {
						d.Place(r)
					}
				}
				p.Devices = append(p.Devices, d)
			}
		}
		for _, p := range pools {
			if free > 0 {
				p.FreePhysical[node] = free
			}
		}
	}
	return pools
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

// withPolicy returns the default plugin set in the given step-3 policy.
func withPolicy(policy core.PlacementPolicy) []fwk.Plugin {
	set := plugins.Default()
	for i, p := range set {
		if _, ok := p.(plugins.LocalityFit); ok {
			set[i] = plugins.LocalityFit{Policy: policy}
		}
	}
	return set
}

// fitFilterOnly is ResourceFit as it was before it narrowed anything: the
// filter, without the pre-filter that offers candidates.
type fitFilterOnly struct{}

func (fitFilterOnly) Name() string { return plugins.ResourceFit{}.Name() }
func (fitFilterOnly) Filter(u *fwk.Unit, d *core.DeviceState) bool {
	return plugins.ResourceFit{}.Filter(u, d)
}

// TestEngineNarrowingIsAnOptimisation: the candidates ResourceFit's
// pre-filter offers change what the engine looks at, never what it decides.
// Over random pools — idle, labelled and loaded devices, with and without
// memory over-commitment — and random requests, fractional and
// byte-quantity, the default plugin set decides exactly what the same set
// with that pre-filter stripped decides, which is what Algorithm 1 decides;
// and each sequence ends on a request for more than a whole device, which an
// idle device's filters wave through (admission never lets one this far).
func TestEngineNarrowingIsAnOptimisation(t *testing.T) {
	const steps = 30
	for _, policy := range []core.PlacementPolicy{core.PaperPolicy, core.BestBest, core.WorstWorst, core.FirstFit} {
		narrowing := fwk.NewEngine(withPolicy(policy))
		set := withPolicy(policy)
		for i, p := range set {
			if _, ok := p.(plugins.ResourceFit); ok {
				set[i] = fitFilterOnly{}
			}
		}
		walking := fwk.NewEngine(set)
		narrowed := 0
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed + 5000))
			pools := randomPools(rng, 3, []float64{1, 1.5}[seed%2])
			nTxn, wTxn, legacy := fwk.NewTxn(pools[0]), fwk.NewTxn(pools[1]), pools[2]
			for step := 0; step < steps; step++ {
				r := randomRequest(rng)
				if rng.Intn(3) == 0 {
					r.Mem, r.MemBytes = 0, int64(rng.Intn(16)+1)<<30
				}
				if step == steps-1 {
					r.Util = 1.5
				}
				if len(pools[0].Fitting(r)) < len(pools[0].Devices) {
					narrowed++
				}
				u := &fwk.Unit{Name: fmt.Sprintf("sp-%d", step), Req: r}
				got, want := narrowing.Schedule(u, nTxn), walking.Schedule(u, wTxn)
				if got != want {
					t.Fatalf("policy %d seed %d step %d req %+v: narrowed %+v, every device %+v", policy, seed, step, r, got, want)
				}
				if step == steps-1 {
					break // Algorithm 1 refuses what no device can hold; the pools part ways here
				}
				if alg := core.ScheduleWithPolicy(r, legacy, policy); got != alg {
					t.Fatalf("policy %d seed %d step %d req %+v: engine %+v, Algorithm 1 %+v", policy, seed, step, r, got, alg)
				}
			}
			if err := core.DiffPools(pools[0], pools[1]); err != nil {
				t.Fatalf("policy %d seed %d: pools diverged: %v", policy, seed, err)
			}
			if err := pools[0].VerifyIndex(); err != nil {
				t.Fatalf("policy %d seed %d: %v", policy, seed, err)
			}
		}
		if narrowed == 0 {
			t.Fatalf("policy %d: no request's candidates were fewer than the pool", policy)
		}
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
		want, pool := randomPoolPair(rng) // want stays untouched as the reference
		eng := fwk.NewEngine(plugins.Default())
		pool.Fitting(core.Request{}) // index the literal pool before its first step
		txn := fwk.NewTxn(pool)
		mark := txn.Checkpoint()
		for step := 0; step < 20; step++ {
			if eng.Schedule(&fwk.Unit{Req: randomRequest(rng)}, txn).Outcome == core.NewDevice {
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
	reference, pool := randomPoolPair(rng)
	var reqs []core.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, randomRequest(rng))
	}

	eng := fwk.NewEngine(plugins.Default())
	pool.Fitting(core.Request{})
	txn := fwk.NewTxn(pool)
	for _, r := range reqs[:6] {
		eng.Schedule(&fwk.Unit{Req: r}, txn)
		requireIndex(t, pool, "before the mark")
	}
	mark := txn.Checkpoint()
	for _, r := range reqs[6:] {
		eng.Schedule(&fwk.Unit{Req: r}, txn)
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
