package core_test

import (
	"maps"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// TestClusterWatchesOnlyControllersWithTraffic: a full stack opens a watch
// for each control loop that has events to handle and for nothing else — an
// idle loop would still cost a watch and, after every apiserver restart, a
// relist. Every reflector relists exactly once across a restart, so the
// per-consumer relist counts name who holds the live reflectors.
func TestClusterWatchesOnlyControllersWithTraffic(t *testing.T) {
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schedfw.Install(c, core.Config{}); err != nil {
		t.Fatal(err)
	}
	c.API.EnableDurability(apiserver.DurabilityConfig{})
	env.RunUntil(time.Second)
	if _, err := c.API.Restart(); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(2 * time.Second)

	got := map[string]int64{}
	c.Obs.CounterVec("kubeshare_reflector_relist_total", "consumer").Each(func(labels []obs.Label, n int64) {
		got[labels[0].Value] = n
	})
	want := map[string]int64{"kube-scheduler": 2, "kubelet": 2, "sharepodset": 2, "kubeshare-sched": 4, "kubeshare-devmgr": 4}
	if !maps.Equal(got, want) {
		t.Fatalf("relists per consumer = %v, want %v", got, want)
	}
	if n := len(c.API.Reflectors("")); n != 14 {
		t.Fatalf("%d live reflectors, want 14", n)
	}
}
