package core_test

import (
	. "kubeshare/internal/core"
	"testing"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/backoff"
	"kubeshare/internal/kube/store"
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

// replicaLife is one set replica's history as a watcher saw it.
type replicaLife struct {
	name                     string
	created, failed, deleted time.Duration // failed and deleted: -1 until seen
}

// watchReplicas records the life of every sharePod a set creates, in
// creation order.
func watchReplicas(s *testStack) *[]*replicaLife {
	lives := &[]*replicaLife{}
	byName := map[string]*replicaLife{}
	s.c.API.Inform("test", "test-watch-replicas", KindSharePod, apiserver.WatchOptions{}, func(_ *sim.Proc, ev store.Event) {
		sp := ev.Object.(*SharePod)
		l := byName[sp.Name]
		if l == nil {
			l = &replicaLife{name: sp.Name, created: s.env.Now(), failed: -1, deleted: -1}
			byName[sp.Name] = l
			*lives = append(*lives, l)
		}
		switch {
		case ev.Type == store.Deleted:
			l.deleted = s.env.Now()
		case sp.Status.Phase == SharePodFailed && l.failed < 0:
			l.failed = s.env.Now()
		}
	})
	return lives
}

// failingTemplate is a set template whose container can never start: its
// image is not registered, so every replica fails on contact.
func failingTemplate() SharePodSpec {
	tm := setTemplate(0.3)
	tm.Pod.Containers[0].Image = "no-such-image"
	return tm
}

// TestSharePodSetReplacesFailedReplica: a set keeps its live count at
// target whether its replicas finish or fail. A finished replica is replaced
// at once; a failed one is deleted the instant it fails and replaced after
// the set's backoff.
func TestSharePodSetReplacesFailedReplica(t *testing.T) {
	finishing := setTemplate(0.3)
	finishing.Pod.Containers[0].Env = map[string]string{"TRAIN_SECONDS": "2"}
	for _, tc := range []struct {
		name string
		tmpl SharePodSpec
		fail bool
	}{
		{"finishing", finishing, false},
		{"failing", failingTemplate(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStack(t, 1, Config{})
			lives := watchReplicas(s)
			s.env.Go("t", func(p *sim.Proc) {
				SharePodSets(s.c.API).Create(&SharePodSet{
					ObjectMeta: api.ObjectMeta{Name: "churn"},
					Replicas:   1,
					Template:   tc.tmpl,
				})
				p.Sleep(30 * time.Second)
				SharePodSets(s.c.API).Delete("churn")
			})
			s.env.Run()
			if len(*lives) < 4 {
				t.Fatalf("%d replicas created in 30s, want several generations", len(*lives))
			}
			for _, l := range *lives {
				if failed := l.failed >= 0; failed != tc.fail {
					t.Fatalf("replica %s failed = %v", l.name, failed)
				}
				if tc.fail && l.deleted != l.failed {
					t.Errorf("failed replica %s deleted at %v, failed at %v", l.name, l.deleted, l.failed)
				}
			}
			if n := len(SharePods(s.c.API).List()); n != 0 {
				t.Fatalf("%d sharePods outlive their set", n)
			}
		})
	}
}

// TestSharePodSetReplacementBackoff: the k-th consecutive failed replica's
// replacement is created exactly the k-th delay of the set's backoff
// sequence after the failure, though the corpse's own Deleted event
// reconciles the set in the instant it fails; and a set deleted and
// re-created under the same name starts the sequence afresh.
func TestSharePodSetReplacementBackoff(t *testing.T) {
	s := newStack(t, 1, Config{})
	lives := watchReplicas(s)
	var split int // the first replica of the re-created set
	s.env.Go("t", func(p *sim.Proc) {
		for life := 0; life < 2; life++ {
			SharePodSets(s.c.API).Create(&SharePodSet{
				ObjectMeta: api.ObjectMeta{Name: "crash"},
				Replicas:   1,
				Template:   failingTemplate(),
			})
			p.Sleep(20 * time.Second)
			SharePodSets(s.c.API).Delete("crash")
			p.Sleep(5 * time.Second)
			if life == 0 {
				split = len(*lives)
			}
		}
	})
	s.env.Run()
	halves := [][]*replicaLife{(*lives)[:split], (*lives)[split:]}
	for h, set := range halves {
		if len(set) < 3 {
			t.Fatalf("set life %d: %d replicas, want ≥ 3", h, len(set))
		}
		seq := backoff.New("sharepodset/crash", ReplaceBackoffBase, ReplaceBackoffCap)
		for k := 1; k < len(set); k++ {
			want := seq.Next()
			if got := set[k].created - set[k-1].failed; got != want {
				t.Errorf("set life %d: replacement %d created %v after failure %d, want the backoff's %v",
					h, k, got, k-1, want)
			}
		}
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
