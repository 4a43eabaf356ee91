package core_test

import (
	. "kubeshare/internal/core"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

// setTemplate is a long-running fractional template for set tests.
func setTemplate(req float64) SharePodSpec {
	return SharePodSpec{
		GPURequest: req, GPULimit: 1, GPUMem: 0.1,
		Pod: api.PodSpec{Containers: []api.Container{{
			Name: "c", Image: "train",
			Env: map[string]string{"TRAIN_SECONDS": "3600"},
		}}},
	}
}

func TestSharePodSetScalesUp(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("t", func(p *sim.Proc) {
		SharePodSets(s.c.API).Create(&SharePodSet{
			ObjectMeta: api.ObjectMeta{Name: "serve"},
			Replicas:   3,
			Template:   setTemplate(0.3),
		})
	})
	s.env.RunUntil(30 * time.Second)
	running := 0
	for _, sp := range SharePods(s.c.API).List() {
		if sp.Status.Phase == SharePodRunning {
			running++
		}
		if sp.OwnerName != "SharePodSet/serve" {
			t.Fatalf("owner = %q", sp.OwnerName)
		}
	}
	if running != 3 {
		t.Fatalf("running replicas = %d, want 3", running)
	}
	set, _ := SharePodSets(s.c.API).Get("serve")
	if set.ReadyReplicas != 3 {
		t.Fatalf("ReadyReplicas = %d", set.ReadyReplicas)
	}
	// All three fit one GPU (3×0.3): the set + scheduler pack them.
	uuids := map[string]bool{}
	for _, sp := range SharePods(s.c.API).List() {
		uuids[sp.Status.UUID] = true
	}
	if len(uuids) != 1 {
		t.Fatalf("replicas spread over %d GPUs, want 1", len(uuids))
	}
}

func TestSharePodSetScaleDownAndDelete(t *testing.T) {
	s := newStack(t, 1, Config{})
	s.env.Go("t", func(p *sim.Proc) {
		SharePodSets(s.c.API).Create(&SharePodSet{
			ObjectMeta: api.ObjectMeta{Name: "serve"},
			Replicas:   3,
			Template:   setTemplate(0.3),
		})
		p.Sleep(20 * time.Second)
		SharePodSets(s.c.API).Mutate("serve", func(cur *SharePodSet) error {
			cur.Replicas = 1
			return nil
		})
		p.Sleep(20 * time.Second)
		live := 0
		for _, sp := range SharePods(s.c.API).List() {
			if !sp.Terminated() {
				live++
			}
		}
		if live != 1 {
			t.Errorf("live after scale-down = %d, want 1", live)
		}
		SharePodSets(s.c.API).Delete("serve")
	})
	s.env.Run()
	if n := len(SharePods(s.c.API).List()); n != 0 {
		t.Fatalf("orphan sharePods remain: %d", n)
	}
	if n := len(VGPUs(s.c.API).List()); n != 0 {
		t.Fatalf("vGPUs remain: %d", n)
	}
}

func TestSharePodSetReplacesFailedReplica(t *testing.T) {
	s := newStack(t, 1, Config{})
	// Template that finishes quickly: terminated replicas are replaced to
	// keep the live count at target.
	tmpl := SharePodSpec{
		GPURequest: 0.3, GPULimit: 1, GPUMem: 0.1,
		Pod: api.PodSpec{Containers: []api.Container{{
			Name: "c", Image: "train",
			Env: map[string]string{"TRAIN_SECONDS": "2"},
		}}},
	}
	s.env.Go("t", func(p *sim.Proc) {
		SharePodSets(s.c.API).Create(&SharePodSet{
			ObjectMeta: api.ObjectMeta{Name: "churn"},
			Replicas:   1,
			Template:   tmpl,
		})
		p.Sleep(30 * time.Second)
		SharePodSets(s.c.API).Delete("churn")
	})
	s.env.Run()
	// The 2s jobs kept finishing; the set should have created several
	// generations in 30s.
	if s.env.Now() > 2*time.Minute {
		t.Fatalf("sim ran to %v", s.env.Now())
	}
}

func TestSharePodSetValidation(t *testing.T) {
	s := newStack(t, 1, Config{})
	bad := &SharePodSet{
		ObjectMeta: api.ObjectMeta{Name: "bad"},
		Replicas:   -1,
		Template:   setTemplate(0.3),
	}
	if _, err := SharePodSets(s.c.API).Create(bad); err == nil {
		t.Fatal("negative replicas accepted")
	}
	pinned := &SharePodSet{
		ObjectMeta: api.ObjectMeta{Name: "pinned"},
		Replicas:   1,
		Template: func() SharePodSpec {
			tm := setTemplate(0.3)
			tm.GPUID = "vgpu-x"
			tm.NodeName = "node-0"
			return tm
		}(),
	}
	if _, err := SharePodSets(s.c.API).Create(pinned); err == nil {
		t.Fatal("GPUID-pinned template accepted")
	}
}
