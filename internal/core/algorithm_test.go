package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// testPool builds a pool with free physical GPUs and a serial id generator.
func testPool(freePerNode map[string]int) *Pool {
	n := 0
	return &Pool{
		FreePhysical: freePerNode,
		NewID: func() string {
			n++
			return fmt.Sprintf("new-%02d", n)
		},
	}
}

func dev(id, node string, util, mem float64) *DeviceState {
	d := NewDeviceState(id, node)
	d.Util, d.Mem, d.Idle = util, mem, false
	return d
}

func TestScheduleBestFitPacksTightest(t *testing.T) {
	pool := testPool(map[string]int{"n0": 1})
	pool.Devices = []*DeviceState{
		dev("d-loose", "n0", 0.9, 0.9),
		dev("d-tight", "n0", 0.3, 0.3),
	}
	got := Schedule(Request{Util: 0.25, Mem: 0.25}, pool)
	if got.Outcome != Assigned || got.GPUID != "d-tight" {
		t.Fatalf("decision = %+v, want best-fit d-tight", got)
	}
	// Residuals must be committed.
	if math.Abs(pool.Devices[1].Util-0.05) > 1e-9 {
		t.Fatalf("residual not committed: %v", pool.Devices[1].Util)
	}
}

func TestSchedulePrefersExistingOverNew(t *testing.T) {
	pool := testPool(map[string]int{"n0": 3})
	pool.Devices = []*DeviceState{dev("d0", "n0", 0.5, 0.5)}
	got := Schedule(Request{Util: 0.4, Mem: 0.4}, pool)
	if got.Outcome != Assigned || got.GPUID != "d0" {
		t.Fatalf("decision = %+v, want existing d0", got)
	}
}

func TestScheduleNewDeviceWhenNothingFits(t *testing.T) {
	pool := testPool(map[string]int{"n0": 2})
	pool.Devices = []*DeviceState{dev("d0", "n0", 0.2, 0.9)}
	got := Schedule(Request{Util: 0.5, Mem: 0.1}, pool)
	if got.Outcome != NewDevice || got.NodeName != "n0" {
		t.Fatalf("decision = %+v, want NewDevice on n0", got)
	}
	if pool.FreePhysical["n0"] != 1 {
		t.Fatalf("free physical not decremented: %v", pool.FreePhysical)
	}
	if len(pool.Devices) != 2 {
		t.Fatal("new device not added to pool")
	}
}

func TestScheduleNoCapacity(t *testing.T) {
	pool := testPool(map[string]int{})
	pool.Devices = []*DeviceState{dev("d0", "n0", 0.2, 0.2)}
	got := Schedule(Request{Util: 0.5, Mem: 0.1}, pool)
	if got.Outcome != NoCapacity {
		t.Fatalf("decision = %+v, want NoCapacity", got)
	}
}

func TestScheduleIdleDeviceUsedBeforeNew(t *testing.T) {
	pool := testPool(map[string]int{"n0": 5})
	idle := NewDeviceState("d-idle", "n0")
	pool.Devices = []*DeviceState{idle}
	got := Schedule(Request{Util: 0.9, Mem: 0.9}, pool)
	if got.Outcome != Assigned || got.GPUID != "d-idle" {
		t.Fatalf("decision = %+v, want idle reuse", got)
	}
	if idle.Idle {
		t.Fatal("idle flag not cleared after placement")
	}
}

func TestScheduleIdleDeviceResetsStaleLabels(t *testing.T) {
	pool := testPool(nil)
	stale := NewDeviceState("d0", "n0")
	stale.Excl = "old-tenant"
	stale.Anti["old"] = true
	pool.Devices = []*DeviceState{stale}
	got := Schedule(Request{Util: 0.5, Mem: 0.5, Anti: "old"}, pool)
	if got.Outcome != Assigned {
		t.Fatalf("decision = %+v: stale labels on idle device must not filter it", got)
	}
	if stale.Excl != "" || stale.Anti["old-tenant"] {
		t.Fatalf("stale labels survived reuse: %+v", stale)
	}
}

func TestScheduleAffinityColocates(t *testing.T) {
	pool := testPool(map[string]int{"n0": 4})
	first := Schedule(Request{Util: 0.3, Mem: 0.3, Aff: "grp"}, pool)
	if first.Outcome != NewDevice {
		t.Fatalf("first = %+v", first)
	}
	second := Schedule(Request{Util: 0.3, Mem: 0.3, Aff: "grp"}, pool)
	if second.Outcome != Assigned || second.GPUID != first.GPUID {
		t.Fatalf("second = %+v, want same device %s", second, first.GPUID)
	}
}

func TestScheduleAffinityPrefersIdleForNewGroup(t *testing.T) {
	pool := testPool(map[string]int{"n0": 4})
	pool.Devices = []*DeviceState{
		dev("d-busy", "n0", 0.7, 0.7),
		NewDeviceState("d-idle", "n0"),
	}
	got := Schedule(Request{Util: 0.1, Mem: 0.1, Aff: "grp"}, pool)
	if got.Outcome != Assigned || got.GPUID != "d-idle" {
		t.Fatalf("decision = %+v, want idle device for a fresh affinity group", got)
	}
}

func TestScheduleAffinityRejectsOnExclusionMismatch(t *testing.T) {
	pool := testPool(map[string]int{"n0": 4})
	Schedule(Request{Util: 0.2, Mem: 0.2, Aff: "grp", Excl: "tenant-a"}, pool)
	got := Schedule(Request{Util: 0.2, Mem: 0.2, Aff: "grp", Excl: "tenant-b"}, pool)
	if got.Outcome != Rejected {
		t.Fatalf("decision = %+v, want Rejected (exclusion mismatch on affinity device)", got)
	}
}

func TestScheduleAffinityRejectsOnAntiAffinity(t *testing.T) {
	pool := testPool(map[string]int{"n0": 4})
	Schedule(Request{Util: 0.2, Mem: 0.2, Aff: "grp", Anti: "solo"}, pool)
	got := Schedule(Request{Util: 0.2, Mem: 0.2, Aff: "grp", Anti: "solo"}, pool)
	if got.Outcome != Rejected {
		t.Fatalf("decision = %+v, want Rejected (anti-affinity conflict within affinity group)", got)
	}
}

func TestScheduleAffinityRejectsOnCapacity(t *testing.T) {
	pool := testPool(map[string]int{"n0": 4})
	Schedule(Request{Util: 0.8, Mem: 0.2, Aff: "grp"}, pool)
	got := Schedule(Request{Util: 0.5, Mem: 0.2, Aff: "grp"}, pool)
	if got.Outcome != Rejected {
		t.Fatalf("decision = %+v, want Rejected (affinity device full)", got)
	}
}

func TestScheduleAntiAffinitySeparates(t *testing.T) {
	pool := testPool(map[string]int{"n0": 4})
	a := Schedule(Request{Util: 0.2, Mem: 0.2, Anti: "spread"}, pool)
	b := Schedule(Request{Util: 0.2, Mem: 0.2, Anti: "spread"}, pool)
	c := Schedule(Request{Util: 0.2, Mem: 0.2, Anti: "spread"}, pool)
	ids := map[string]bool{a.GPUID: true, b.GPUID: true, c.GPUID: true}
	if len(ids) != 3 {
		t.Fatalf("anti-affinity containers share devices: %v %v %v", a.GPUID, b.GPUID, c.GPUID)
	}
}

func TestScheduleExclusionSeparatesTenants(t *testing.T) {
	pool := testPool(map[string]int{"n0": 4})
	a := Schedule(Request{Util: 0.2, Mem: 0.2, Excl: "tenant-a"}, pool)
	b := Schedule(Request{Util: 0.2, Mem: 0.2, Excl: "tenant-b"}, pool)
	if a.GPUID == b.GPUID {
		t.Fatal("different exclusion labels share a device")
	}
	// Same label may share.
	c := Schedule(Request{Util: 0.2, Mem: 0.2, Excl: "tenant-a"}, pool)
	if c.GPUID != a.GPUID {
		t.Fatalf("same exclusion label split: %v vs %v", c.GPUID, a.GPUID)
	}
}

func TestScheduleExclusionVsUnlabelled(t *testing.T) {
	pool := testPool(map[string]int{"n0": 4})
	a := Schedule(Request{Util: 0.2, Mem: 0.2}, pool)
	b := Schedule(Request{Util: 0.2, Mem: 0.2, Excl: "tenant-a"}, pool)
	if a.GPUID == b.GPUID {
		t.Fatal("exclusion-labelled container shares with unlabelled one")
	}
}

func TestScheduleWorstFitForAffinityDevices(t *testing.T) {
	// Two affinity groups with different residuals; an unlabelled request
	// that fits no plain device must go to the *emptier* affinity device.
	pool := testPool(map[string]int{})
	g1 := dev("d-g1", "n0", 0.3, 0.9)
	g1.Aff["g1"] = true
	g2 := dev("d-g2", "n0", 0.6, 0.9)
	g2.Aff["g2"] = true
	pool.Devices = []*DeviceState{g1, g2}
	got := Schedule(Request{Util: 0.2, Mem: 0.1}, pool)
	if got.Outcome != Assigned || got.GPUID != "d-g2" {
		t.Fatalf("decision = %+v, want worst-fit d-g2", got)
	}
}

func TestScheduleMemoryConstraintFilters(t *testing.T) {
	pool := testPool(map[string]int{"n0": 1})
	pool.Devices = []*DeviceState{dev("d0", "n0", 0.9, 0.05)}
	got := Schedule(Request{Util: 0.1, Mem: 0.2}, pool)
	if got.Outcome != NewDevice {
		t.Fatalf("decision = %+v, want NewDevice (memory exhausted on d0)", got)
	}
}

func TestScheduleNewDeviceSpreadsAcrossNodes(t *testing.T) {
	pool := testPool(map[string]int{"n0": 1, "n1": 3})
	got := Schedule(Request{Util: 0.5, Mem: 0.5}, pool)
	if got.Outcome != NewDevice || got.NodeName != "n1" {
		t.Fatalf("decision = %+v, want new device on n1 (most free)", got)
	}
}

// Property: with ample capacity, affinity co-location holds under any
// submission order — each labelled group lands on exactly one device
// regardless of permutation (constraint satisfaction is order-independent
// even though placement identities differ).
func TestPropertyAffinityOrderIndependent(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%12) + 4
		reqs := make([]Request, count)
		rng := rand.New(rand.NewSource(seed))
		for i := range reqs {
			reqs[i] = Request{
				Util: 0.05,
				Mem:  0.05,
				Aff:  fmt.Sprintf("grp%d", rng.Intn(3)),
			}
		}
		run := func(order []int) map[string]map[string]bool {
			pool := testPool(map[string]int{"n0": 64})
			groups := map[string]map[string]bool{}
			for _, idx := range order {
				dec := Schedule(reqs[idx], pool)
				if dec.Outcome == Rejected || dec.Outcome == NoCapacity {
					return nil
				}
				g := reqs[idx].Aff
				if groups[g] == nil {
					groups[g] = map[string]bool{}
				}
				groups[g][dec.GPUID] = true
			}
			return groups
		}
		fwd := make([]int, count)
		for i := range fwd {
			fwd[i] = i
		}
		perm := rng.Perm(count)
		for _, groups := range []map[string]map[string]bool{run(fwd), run(perm)} {
			if groups == nil {
				return false
			}
			for _, devices := range groups {
				if len(devices) != 1 {
					return false // a group split across devices
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Algorithm 1 never over-commits a device — after any sequence of
// accepted placements, every device's residuals stay ≥ 0, affinity groups
// stay co-located, anti-affinity labels stay unique per device, and devices
// never mix exclusion labels.
func TestPropertyScheduleInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		pool := testPool(map[string]int{"n0": 4, "n1": 4})
		affDevice := map[string]string{}
		for _, v := range raw {
			r := Request{
				Util: float64(v%9+1) / 10,
				Mem:  float64(v%7+1) / 10,
			}
			switch (v / 16) % 4 {
			case 1:
				r.Aff = fmt.Sprintf("aff%d", v%3)
			case 2:
				r.Anti = fmt.Sprintf("anti%d", v%3)
			case 3:
				r.Excl = fmt.Sprintf("excl%d", v%2)
			}
			dec := Schedule(r, pool)
			if dec.Outcome == Rejected || dec.Outcome == NoCapacity {
				continue
			}
			if r.Aff != "" {
				if prev, ok := affDevice[r.Aff]; ok && prev != dec.GPUID {
					return false // affinity group split
				}
				affDevice[r.Aff] = dec.GPUID
			}
		}
		for _, d := range pool.Devices {
			if !d.Idle && (d.Util < -1e-9 || d.Mem < -1e-9) {
				return false // over-committed
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sortedFirstIdle and sortedPickNode are the collect-and-sort forms
// firstIdle and PickNewDeviceNode had before they became single passes,
// kept as the reference for their tie-breaks (lowest ID; most free GPUs,
// then lowest name).
func sortedFirstIdle(pool *Pool) *DeviceState {
	var idle []*DeviceState
	for _, d := range pool.Devices {
		if d.Idle {
			idle = append(idle, d)
		}
	}
	if len(idle) == 0 {
		return nil
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].ID < idle[j].ID })
	return idle[0]
}

func sortedPickNode(pool *Pool) string {
	bestNode, bestFree := "", 0
	var nodes []string
	for n := range pool.FreePhysical {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if free := pool.FreePhysical[n]; free > bestFree {
			bestNode, bestFree = n, free
		}
	}
	return bestNode
}

func TestSinglePassPicksMatchSortedReference(t *testing.T) {
	tables := []struct {
		name string
		free map[string]int
		idle []string // device IDs in pool order; all idle
	}{
		{"empty", map[string]int{}, nil},
		{"zero-free-only", map[string]int{"n0": 0, "n1": 0}, nil},
		{"tie-lowest-name", map[string]int{"n2": 3, "n0": 3, "n1": 3}, []string{"g2", "g0", "g1"}},
		{"max-beats-name", map[string]int{"n0": 1, "n9": 4, "n5": 4}, []string{"b", "a"}},
	}
	for _, tc := range tables {
		pool := testPool(tc.free)
		for _, id := range tc.idle {
			pool.Devices = append(pool.Devices, NewDeviceState(id, "n0"))
		}
		if got, want := PickNewDeviceNode(pool), sortedPickNode(pool); got != want {
			t.Errorf("%s: PickNewDeviceNode = %q, want %q", tc.name, got, want)
		}
		if got, want := firstIdle(pool), sortedFirstIdle(pool); got != want {
			t.Errorf("%s: firstIdle = %v, want %v", tc.name, got, want)
		}
	}
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := testPool(map[string]int{})
		for n := rng.Intn(12); n > 0; n-- {
			pool.FreePhysical[fmt.Sprintf("node-%02d", rng.Intn(20))] = rng.Intn(4)
		}
		for n := rng.Intn(16); n > 0; n-- {
			d := NewDeviceState(fmt.Sprintf("vgpu-%03d", rng.Intn(1000)), "node-00")
			d.Idle = rng.Intn(3) == 0
			pool.Devices = append(pool.Devices, d)
		}
		if got, want := PickNewDeviceNode(pool), sortedPickNode(pool); got != want {
			t.Fatalf("seed %d: PickNewDeviceNode = %q, want %q (free %v)", seed, got, want, pool.FreePhysical)
		}
		got, want := firstIdle(pool), sortedFirstIdle(pool)
		if (got == nil) != (want == nil) || (got != nil && got.ID != want.ID) {
			t.Fatalf("seed %d: firstIdle = %v, want %v", seed, got, want)
		}
	}
}
