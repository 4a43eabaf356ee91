package plugins_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/coretest"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/core/schedfw/plugins"
)

// bigJobHeadroom is the README's example filter (kept honest against the
// driver in schedfw's example_test.go): small jobs may not eat a device's
// last Floor of utilization, big jobs pass unconditionally. It is why the
// driver's memo is by request identity: under it a 0.6 request can place
// where a 0.3 one finds no capacity.
type bigJobHeadroom struct{ Floor float64 }

func (bigJobHeadroom) Name() string { return "big-job-headroom" }

func (p bigJobHeadroom) Filter(u *fwk.Unit, d *core.DeviceState) bool {
	return u.Req.Util >= p.Floor || core.Residual(d)-u.Req.Util >= p.Floor
}

// TestPluginContract is the conformance suite for fwk's plugin contract,
// which the driver's parking and per-cycle memo rest on. Against random
// pools, for every plugin set the repo ships or documents:
//
//   - Pure: two units with equal Req but different Name and Created get the
//     same decision against equal pools, and leave the pools equal.
//   - Capacity-monotone: once a request has found NoCapacity, no sequence of
//     further reservations through the pipeline (Txn.Place / Txn.AddDevice by
//     the reserve phase) lets an identical request place.
//
// A new plugin set joins by adding a row.
func TestPluginContract(t *testing.T) {
	sets := map[string][]fwk.Plugin{
		"default":  plugins.Default(),
		"headroom": append([]fwk.Plugin{bigJobHeadroom{Floor: 0.5}}, plugins.Default()...),
	}
	for _, policy := range []coretest.PlacementPolicy{coretest.PaperPolicy, coretest.BestBest, coretest.WorstWorst, coretest.FirstFit} {
		sets[fmt.Sprintf("locality-fit-%d", policy)] = withPolicy(policy)
	}
	for name, set := range sets {
		set := set
		t.Run(name, func(t *testing.T) {
			engA, engB := fwk.NewEngine(set), fwk.NewEngine(set)
			exhausted := 0
			for seed := int64(0); seed < 200; seed++ {
				rng := rand.New(rand.NewSource(seed))
				poolA, poolB := randomPoolPair(rng)
				txnA, txnB := fwk.NewTxn(poolA), fwk.NewTxn(poolB)
				var failed []core.Request
				for step := 0; step < 40; step++ {
					r := randomRequest(rng)
					a := engA.Schedule(&fwk.Unit{Name: fmt.Sprintf("a-%d", step), Created: time.Duration(step), Req: r}, txnA)
					b := engB.Schedule(&fwk.Unit{Name: fmt.Sprintf("zz-%d", 1000-step), Created: time.Hour, Req: r}, txnB)
					if a != b {
						t.Fatalf("seed %d step %d req %+v: verdict depends on more than Req: %+v vs %+v", seed, step, r, a, b)
					}
					if a.Outcome == core.NoCapacity {
						failed = append(failed, r)
					}
					// Every request that has found NoCapacity must still find
					// it after whatever this step reserved.
					for _, fr := range failed {
						if d := engA.Schedule(&fwk.Unit{Name: "retry", Req: fr}, txnA); d.Outcome != core.NoCapacity {
							t.Fatalf("seed %d step %d: req %+v found NoCapacity, then %s after more reservations (last: %+v → %+v)",
								seed, step, fr, d.Outcome, r, a)
						}
					}
				}
				if err := core.DiffPools(poolA, poolB); err != nil {
					t.Fatalf("seed %d: equal requests left unequal pools: %v", seed, err)
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
}
