package core_test

import (
	"math/rand"
	"testing"

	"kubeshare/internal/core"
	"kubeshare/internal/core/coretest"
)

// commit places dec onto pool as Schedule would have.
func commit(pool *core.Pool, r core.Request, dec core.Decision, d *core.DeviceState) {
	switch dec.Outcome {
	case core.Assigned:
		pool.Place(d, r)
	case core.NewDevice:
		pool.AddDevice(dec.NodeName, dec.GPUID, r)
	}
}

// TestDecideMatchesAlgorithm1: Schedule must make the same decision —
// outcome, device, node, reason — as Algorithm 1 as the paper writes it
// (coretest.ScheduleWithPolicy) on every request of a random sequence, and
// leave the pool in the same state.
func TestDecideMatchesAlgorithm1(t *testing.T) {
	// gpu_mem is a hard share, so the memory capacity factor is always 1.
	t.Run("mem-factor-1", func(t *testing.T) {
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pools := coretest.RandomPools(rng, 2)
			legacy, pool := pools[0], pools[1]
			for step := 0; step < 30; step++ {
				r := coretest.RandomRequest(rng)
				want := coretest.ScheduleWithPolicy(r, legacy, coretest.PaperPolicy)
				if got := core.Schedule(r, pool); got != want {
					t.Fatalf("seed %d step %d req %+v: Schedule %+v, Algorithm 1 %+v", seed, step, r, got, want)
				}
			}
			if err := core.DiffPools(pool, legacy); err != nil {
				t.Fatalf("seed %d: pools diverged after sequence: %v", seed, err)
			}
		}
	})
}

// TestDecideNarrowingIsAnOptimisation: the candidates Pool.Fitting offers
// change what Decide looks at, never what it decides. Over random pools —
// idle, labelled and loaded devices — and random requests, fractional and byte-quantity,
// Decide decides exactly what the same walk over every device decides, which
// is what Algorithm 1 decides; and each sequence ends on a request for more
// than a whole device, which an idle device's checks wave through (admission
// never lets one this far).
func TestDecideNarrowingIsAnOptimisation(t *testing.T) {
	const steps = 30
	narrowed := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed + 5000))
		pools := coretest.RandomPools(rng, 3)
		fitting, every, legacy := pools[0], pools[1], pools[2]
		for step := 0; step < steps; step++ {
			r := coretest.RandomRequest(rng)
			if rng.Intn(3) == 0 {
				r.Mem, r.MemBytes = 0, int64(rng.Intn(16)+1)<<30
			}
			if step == steps-1 {
				r.Util = 1.5
			}
			if len(fitting.Fitting(r)) < len(fitting.Devices) {
				narrowed++
			}
			got := core.Schedule(r, fitting)
			want, d := core.DecideOver(r, every, every.Devices)
			if got != want {
				t.Fatalf("seed %d step %d req %+v: narrowed %+v, every device %+v", seed, step, r, got, want)
			}
			commit(every, r, want, d)
			if step == steps-1 {
				break // Algorithm 1 refuses what no device can hold; the pools part ways here
			}
			if alg := coretest.ScheduleWithPolicy(r, legacy, coretest.PaperPolicy); got != alg {
				t.Fatalf("seed %d step %d req %+v: Decide %+v, Algorithm 1 %+v", seed, step, r, got, alg)
			}
		}
		if err := core.DiffPools(fitting, every); err != nil {
			t.Fatalf("seed %d: pools diverged: %v", seed, err)
		}
		if err := fitting.VerifyIndex(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if narrowed == 0 {
		t.Fatal("no request's candidates were fewer than the pool")
	}
}

// TestDecideContract holds Decide to the two properties the scheduler's
// parking and per-cycle memo rest on. Against random pools:
//
//   - Pure: Decide changes nothing in the pool, and equal requests get equal
//     decisions against equal pools.
//   - Capacity-monotone: once a request has found NoCapacity, no sequence of
//     further committed decisions lets an identical request place.
func TestDecideContract(t *testing.T) {
	// gpu_mem is a hard share, so the memory capacity factor is always 1.
	t.Run("mem-factor-1", func(t *testing.T) {
		exhausted := 0
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pools := coretest.RandomPools(rng, 3)
			a, b, looked := pools[0], pools[1], pools[2]
			var failed []core.Request
			for step := 0; step < 40; step++ {
				r := coretest.RandomRequest(rng)
				dec, d := core.Decide(r, looked)
				if err := core.DiffPools(looked, b); err != nil {
					t.Fatalf("seed %d step %d req %+v: Decide changed the pool: %v", seed, step, r, err)
				}
				commit(looked, r, dec, d)
				got, again := core.Schedule(r, a), core.Schedule(r, b)
				if got != dec || again != dec {
					t.Fatalf("seed %d step %d req %+v: equal pools, unequal decisions: %+v, %+v, %+v", seed, step, r, dec, got, again)
				}
				if got.Outcome == core.NoCapacity {
					failed = append(failed, r)
				}
				// Every request that has found NoCapacity must still find
				// it after whatever this step committed.
				for _, fr := range failed {
					if dec, _ := core.Decide(fr, a); dec.Outcome != core.NoCapacity {
						t.Fatalf("seed %d step %d: req %+v found NoCapacity, then %s after more placements (last: %+v → %+v)",
							seed, step, fr, dec.Outcome, r, got)
					}
				}
			}
			for _, p := range []*core.Pool{b, looked} {
				if err := core.DiffPools(a, p); err != nil {
					t.Fatalf("seed %d: equal requests left unequal pools: %v", seed, err)
				}
			}
			if len(failed) > 0 {
				exhausted++
			}
		}
		if exhausted < 50 {
			t.Errorf("only %d of 200 pools ever ran out of capacity: the monotone half is barely exercised", exhausted)
		}
	})
}
