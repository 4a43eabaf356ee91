package core_test

import (
	"fmt"
	. "kubeshare/internal/core"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
)

// TestSoakMixedEverything drives every feature at once on one cluster:
// native GPU pods, plain sharePods, affinity groups, anti-affinity and
// exclusion labels, a SharePodSet scaling up and down, and random
// mid-flight deletions — then checks global invariants: nothing leaks, no
// device is over-committed, and the cluster quiesces.
func TestSoakMixedEverything(t *testing.T) {
	s := newStack(t, 4, Config{})
	rng := simrand.New(99)
	s.c.Images.Register("native-train", func(ctx *runtime.Ctx) error {
		if ctx.CUDA == nil {
			return fmt.Errorf("no GPU")
		}
		for i := 0; i < 100; i++ {
			if err := ctx.CUDA.LaunchKernel(ctx.Proc, 10*time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	})

	s.env.Go("chaos", func(p *sim.Proc) {
		var created []string
		for round := 0; round < 8; round++ {
			// Fractional sharePods with a random constraint flavour.
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("sp-%d-%d", round, i)
				sp := sharePod(name, 0.2+0.1*float64(rng.Intn(3)), 1.0, 0.15, float64(1+rng.Intn(4)))
				switch rng.Intn(4) {
				case 0:
					sp.Spec.Affinity = fmt.Sprintf("grp%d", rng.Intn(2))
				case 1:
					sp.Spec.AntiAffinity = "spread"
				case 2:
					sp.Spec.Exclusion = fmt.Sprintf("tenant%d", rng.Intn(2))
				}
				s.create(t, sp)
				created = append(created, name)
			}
			// A native whole-GPU pod competing for devices.
			if round%2 == 0 {
				pod := &api.Pod{
					ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("native-%d", round)},
					Spec: api.PodSpec{Containers: []api.Container{{
						Name: "c", Image: "native-train",
						Requests: api.ResourceList{api.ResourceGPU: 1},
					}}},
				}
				if _, err := s.c.Pods().Create(pod); err != nil {
					t.Errorf("native create: %v", err)
				}
			}
			// Random mid-flight deletion.
			if len(created) > 0 && rng.Float64() < 0.5 {
				victim := created[rng.Intn(len(created))]
				_ = SharePods(s.c.API).Delete(victim) // may already be gone
			}
			p.Sleep(time.Duration(1+rng.Intn(3)) * time.Second)
		}
	})
	s.env.Go("set", func(p *sim.Proc) {
		SharePodSets(s.c.API).Create(&SharePodSet{
			ObjectMeta: api.ObjectMeta{Name: "svc"},
			Replicas:   4,
			Template:   setTemplate(0.2),
		})
		p.Sleep(15 * time.Second)
		SharePodSets(s.c.API).Mutate("svc", func(cur *SharePodSet) error {
			cur.Replicas = 1
			return nil
		})
		p.Sleep(10 * time.Second)
		SharePodSets(s.c.API).Delete("svc")
	})

	// Invariant monitor: no vGPU's live gpu_request commitments ever
	// exceed 1.0, and exclusion labels never mix on a device.
	violations := 0
	s.env.Go("invariants", func(p *sim.Proc) {
		for tick := 0; tick < 120; tick++ {
			p.Sleep(time.Second)
			commit := map[string]float64{}
			excl := map[string]map[string]bool{}
			for _, sp := range SharePods(s.c.API).List() {
				if !sp.Placed() || sp.Terminated() {
					continue
				}
				commit[sp.Spec.GPUID] += sp.Spec.GPURequest
				if excl[sp.Spec.GPUID] == nil {
					excl[sp.Spec.GPUID] = map[string]bool{}
				}
				excl[sp.Spec.GPUID][sp.Spec.Exclusion] = true
			}
			for id, c := range commit {
				if c > 1.000001 {
					violations++
					t.Errorf("t=%v: device %s committed %.3f", s.env.Now(), id, c)
				}
			}
			for id, labels := range excl {
				if len(labels) > 1 {
					violations++
					t.Errorf("t=%v: device %s mixes exclusion labels %v", s.env.Now(), id, labels)
				}
			}
			if violations > 3 {
				return
			}
		}
	})

	s.env.Run()

	// Quiescence: everything terminal, all resources returned.
	for _, sp := range SharePods(s.c.API).List() {
		if !sp.Terminated() {
			t.Fatalf("sharePod %s still %s", sp.Name, sp.Status.Phase)
		}
	}
	if n := len(VGPUs(s.c.API).List()); n != 0 {
		t.Fatalf("vGPUs remain: %d", n)
	}
	for _, node := range s.c.Nodes {
		if got := node.Kubelet.DeviceManager().Capacity()[api.ResourceGPU]; got != 4 {
			t.Fatalf("node %s plugin capacity %d", node.Name, got)
		}
		for _, dev := range node.GPUs {
			if dev.ActiveContexts() != 0 || dev.MemoryUsed() != 0 {
				t.Fatalf("device %s leaked (ctx=%d mem=%d)",
					dev.UUID(), dev.ActiveContexts(), dev.MemoryUsed())
			}
		}
	}
	if s.env.Now() > 10*time.Minute {
		t.Fatalf("soak did not quiesce: %v", s.env.Now())
	}
}
