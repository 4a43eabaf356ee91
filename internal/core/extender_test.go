package core_test

import (
	"fmt"
	. "kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"testing"
	"time"

	"kubeshare/internal/kube"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/sim"
)

// extStack builds a cluster with the extender baseline (on the framework
// driver) installed.
func extStack(t *testing.T, gpus int) (*sim.Env, *kube.Cluster, *schedfw.Extender) {
	t.Helper()
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.Config{Nodes: []kube.NodeConfig{{Name: "n0", GPUs: gpus}}})
	if err != nil {
		t.Fatal(err)
	}
	storetest.Install(t, c.API.Store())
	_, ext, err := schedfw.InstallExtender(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	registerTrainImage(c)
	return env, c, ext
}

func TestExtenderRoundRobinCycles(t *testing.T) {
	env, c, _ := extStack(t, 3)
	env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			sp := sharePod(fmt.Sprintf("j%d", i), 0.3, 0.3, 0.1, 60)
			if _, err := SharePods(c.API).Create(sp); err != nil {
				t.Errorf("create: %v", err)
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
	env.RunUntil(10 * time.Second)
	counts := map[string]int{}
	for _, sp := range SharePods(c.API).List() {
		if !sp.Placed() {
			t.Fatalf("%s unplaced", sp.Name)
		}
		counts[sp.Spec.GPUID]++
	}
	// 6 jobs round-robin over 3 devices: exactly 2 each.
	if len(counts) != 3 {
		t.Fatalf("devices used = %d, want 3", len(counts))
	}
	for id, n := range counts {
		if n != 2 {
			t.Fatalf("device %s has %d jobs, want 2 (round-robin)", id, n)
		}
	}
}

func TestExtenderQueuesWhenAggregateFull(t *testing.T) {
	env, c, _ := extStack(t, 2) // aggregate capacity 2.0
	env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			sp := sharePod(fmt.Sprintf("j%d", i), 0.5, 0.5, 0.1, 3600)
			SharePods(c.API).Create(sp)
			p.Sleep(50 * time.Millisecond)
		}
	})
	env.RunUntil(30 * time.Second)
	placed, pending := 0, 0
	for _, sp := range SharePods(c.API).List() {
		if sp.Placed() {
			placed++
		} else {
			pending++
		}
	}
	if placed != 4 || pending != 1 {
		t.Fatalf("placed=%d pending=%d, want 4/1 (aggregate 2.0 at 0.5 each)", placed, pending)
	}
}

func TestExtenderIgnoresLocalityLabels(t *testing.T) {
	// Table 1's "locality constraint: No": anti-affinity labels are
	// silently ignored by the extender.
	env, c, _ := extStack(t, 2)
	env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			sp := sharePod(fmt.Sprintf("j%d", i), 0.3, 0.3, 0.1, 60)
			sp.Spec.AntiAffinity = "spread"
			SharePods(c.API).Create(sp)
			p.Sleep(50 * time.Millisecond)
		}
		// Third job with the same label: KubeShare would need a 3rd GPU or
		// queue; the extender just round-robins onto device 0 again.
		sp := sharePod("j2", 0.3, 0.3, 0.1, 60)
		sp.Spec.AntiAffinity = "spread"
		SharePods(c.API).Create(sp)
	})
	env.RunUntil(10 * time.Second)
	byDevice := map[string]int{}
	for _, sp := range SharePods(c.API).List() {
		byDevice[sp.Spec.GPUID]++
	}
	shared := false
	for _, n := range byDevice {
		if n > 1 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("extender respected anti-affinity; it must not have that feature")
	}
}

func TestExtenderSingleDeviceMode(t *testing.T) {
	env, c, ext := extStack(t, 4)
	ext.SetSingleDevice(true)
	env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			SharePods(c.API).Create(sharePod(fmt.Sprintf("j%d", i), 0.4, 0.4, 0.1, 60))
			p.Sleep(50 * time.Millisecond)
		}
	})
	env.RunUntil(10 * time.Second)
	ids := map[string]bool{}
	for _, sp := range SharePods(c.API).List() {
		ids[sp.Spec.GPUID] = true
	}
	if len(ids) != 1 {
		t.Fatalf("single-device mode used %d devices", len(ids))
	}
}
