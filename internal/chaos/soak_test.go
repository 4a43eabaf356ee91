package chaos

import (
	"slices"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/sim"
)

// requireClean runs one soak and fails with the seed printed so a breakage
// reproduces from the log line alone. Every run carries the store's mutation
// canary: through crashes, relists and requeues no component may write
// through a shared snapshot.
func requireClean(t *testing.T, cfg SoakConfig) SoakResult {
	t.Helper()
	var canary *storetest.Canary
	res, err := soak(cfg, func(c *kube.Cluster) { canary = storetest.Install(t, c.API.Store()) })
	if err != nil {
		t.Fatalf("seed %d: soak: %v", cfg.Seed, err)
	}
	canary.Check() // now, so a report lands beside its seed below
	for _, v := range res.Violations {
		t.Errorf("seed %d: invariant violated: %v", cfg.Seed, v)
	}
	if t.Failed() {
		t.Fatalf("seed %d: faults %v, outcomes ok=%d failed=%d rejected=%d restarts=%d requeues=%d recoveries=%d/%d resumes=%d relists=%d elapsed=%v",
			cfg.Seed, res.Faults, res.Succeeded, res.Failed, res.Rejected,
			res.Restarts, res.Requeues, res.Recoveries, res.RecoveryFails,
			res.Resumes, res.Relists, res.Elapsed)
	}
	return res
}

// TestSoakSmoke is the tier-1 entry: one short seed, every fault class
// enabled, all invariants checked. Fast enough for every check.sh run.
func TestSoakSmoke(t *testing.T) {
	res := requireClean(t, SoakConfig{
		Seed:         1,
		Jobs:         10,
		JobDuration:  10 * time.Second,
		SubmitWindow: 15 * time.Second,
	})
	if res.Faults.Total() == 0 {
		t.Fatal("smoke soak injected no faults — schedule means too long for the horizon")
	}
}

// TestSoakSeeds is the full multi-seed soak: each seed runs the default
// workload under all fault classes and must satisfy every recovery
// invariant. The faults delivered must include each class at least once
// across the seeds, and recovery paths must actually fire — otherwise the
// soak silently stopped testing anything.
func TestSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak skipped in -short")
	}
	var total Stats
	var restarts int
	var requeues, recoveries int64
	var resumes, relists int
	for _, seed := range []int64{1, 2, 3, 4} {
		res := requireClean(t, SoakConfig{Seed: seed})
		total.NodeCrashes += res.Faults.NodeCrashes
		total.HolderKills += res.Faults.HolderKills
		total.DeviceFaults += res.Faults.DeviceFaults
		total.WatchDrops += res.Faults.WatchDrops
		total.APIRestarts += res.Faults.APIRestarts
		total.TornTails += res.Faults.TornTails
		total.Replayed += res.Faults.Replayed
		restarts += res.Restarts
		requeues += res.Requeues
		recoveries += res.Recoveries
		resumes += res.Resumes
		relists += res.Relists
	}
	if total.NodeCrashes == 0 || total.HolderKills == 0 || total.DeviceFaults == 0 ||
		total.WatchDrops == 0 || total.APIRestarts == 0 {
		t.Fatalf("some fault class never fired across seeds: %v", total)
	}
	if total.TornTails == 0 {
		t.Fatalf("no restart ever hit a torn WAL tail — the truncate-and-recover path went untested: %v", total)
	}
	if total.Replayed == 0 {
		t.Fatal("every restart recovered from a fresh checkpoint — WAL replay went untested")
	}
	if relists == 0 {
		t.Fatal("no reflector ever relisted — restart epochs went unnoticed by consumers")
	}
	if requeues == 0 {
		t.Fatal("no sharePod was ever requeued — the recovery path went untested")
	}
	if recoveries == 0 {
		t.Fatal("no vGPU recovery ever ran — holder kills went unnoticed")
	}
	if resumes == 0 {
		t.Fatal("no reflector ever resumed — watch drops went unnoticed")
	}
	_ = restarts
	_ = relists
}

// TestSoakDeterministic pins the chaos layer's reproducibility: the same
// seed must deliver the same faults and the same outcomes, field for field.
// It runs at default scale so the schedule includes apiserver restarts —
// checkpoint+WAL recovery (replayed counts, modeled outage) must reproduce
// exactly, not just the fault-free path.
func TestSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{Seed: 7}
	a := requireClean(t, cfg)
	b := requireClean(t, cfg)
	if a.Faults != b.Faults {
		t.Fatalf("fault schedule diverged: %v vs %v", a.Faults, b.Faults)
	}
	if a.Faults.APIRestarts == 0 {
		t.Fatalf("no apiserver restart fired — determinism of the recovery path went untested: %v", a.Faults)
	}
	if a.Succeeded != b.Succeeded || a.Failed != b.Failed || a.Rejected != b.Rejected ||
		a.Restarts != b.Restarts || a.Requeues != b.Requeues ||
		a.Recoveries != b.Recoveries || a.RecoveryFails != b.RecoveryFails ||
		a.Elapsed != b.Elapsed {
		t.Fatalf("outcomes diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestQuiescenceCoversEveryStrategy leaks one client on an mps device and
// one on a replica device (registered, never unregistered). Invariant 4 must
// report each — a check that only walked token devices would pass this
// cluster — and report them in sorted-UUID order.
func TestQuiescenceCoversEveryStrategy(t *testing.T) {
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.Config{Nodes: []kube.NodeConfig{{Name: "node-0", GPUs: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	env.RunUntil(time.Second) // kubelets register, nodes turn Ready
	if bad := VerifyQuiescence(c, ks); len(bad) != 0 {
		t.Fatalf("idle cluster not quiescent: %v", bad)
	}

	backend := ks.Backends["node-0"]
	modes := map[string]sharing.Mode{"GPU-a": sharing.ModeReplica, "GPU-b": sharing.ModeToken, "GPU-c": sharing.ModeMPS}
	for uuid, mode := range modes {
		strat, err := backend.StrategyFor(uuid, mode)
		if err != nil {
			t.Fatal(err)
		}
		if mode == sharing.ModeToken {
			continue // instantiated and empty: must stay silent
		}
		if err := strat.Register("leak", sharing.Resources{Request: 0.5, Limit: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, v := range VerifyQuiescence(c, ks) {
		got = append(got, v.Error())
	}
	want := []string{
		"replica strategy GPU-a@node-0 leaked 1 clients",
		"mps strategy GPU-c@node-0 leaked 1 clients",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("violations %q, want %q", got, want)
	}
}
