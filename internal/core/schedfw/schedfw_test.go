package schedfw_test

import (
	"fmt"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/store/storetest"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// stack is a cluster with a scheduler flavour installed.
type stack struct {
	env *sim.Env
	c   *kube.Cluster
	ks  *core.KubeShare
}

func newStack(t *testing.T, nodes int, gpus int, install func(*kube.Cluster) (*core.KubeShare, error)) *stack {
	t.Helper()
	env := sim.NewEnv()
	cfg := kube.Config{}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, kube.NodeConfig{Name: fmt.Sprintf("node-%d", i), GPUs: gpus})
	}
	c, err := kube.NewCluster(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The store's mutation canary rides every full-stack test: scheduler,
	// DevMgr, kubelets and controllers all read shared snapshots.
	storetest.Install(t, c.API.Store())
	ks, err := install(c)
	if err != nil {
		t.Fatal(err)
	}
	workload.RegisterImages(c)
	return &stack{env: env, c: c, ks: ks}
}

// trainPod is a sharePod running a short training job (steps × 10ms kernels).
func trainPod(name string, req, mem float64, steps int) *core.SharePod {
	return &core.SharePod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec: core.SharePodSpec{
			GPURequest: req,
			GPUMem:     mem,
			Pod: api.PodSpec{Containers: []api.Container{{
				Name:  "main",
				Image: workload.TrainImage,
				Env:   map[string]string{workload.EnvSteps: fmt.Sprintf("%d", steps)},
			}}},
		},
	}
}

func (s *stack) create(t *testing.T, sp *core.SharePod) {
	t.Helper()
	if _, err := core.SharePods(s.c.API).Create(sp); err != nil {
		t.Fatalf("create %s: %v", sp.Name, err)
	}
}

func (s *stack) get(t *testing.T, name string) *core.SharePod {
	t.Helper()
	sp, err := core.SharePods(s.c.API).Get(name)
	if err != nil {
		t.Fatalf("get %s: %v", name, err)
	}
	return sp
}

// mixedTrace submits a mixed workload: staggered arrivals, varied demands,
// an affinity group, an exclusive tenant, and an unsatisfiable constraint.
func mixedTrace(t *testing.T, s *stack) []string {
	type entry struct {
		at time.Duration
		sp *core.SharePod
	}
	var names []string
	entries := []entry{
		{0, trainPod("sp-a", 0.5, 0.3, 30)},
		{0, trainPod("sp-b", 0.3, 0.3, 40)},
		{100 * time.Millisecond, trainPod("sp-c", 0.7, 0.5, 30)},
		{150 * time.Millisecond, trainPod("sp-d", 0.2, 0.15, 50)},
		{200 * time.Millisecond, trainPod("sp-e", 0.9, 0.9, 20)},
		{250 * time.Millisecond, trainPod("sp-f", 0.4, 0.4, 30)},
	}
	// Affinity group members arriving apart.
	g1 := trainPod("sp-g1", 0.3, 0.2, 40)
	g1.Spec.Affinity = "grp"
	g2 := trainPod("sp-g2", 0.3, 0.2, 40)
	g2.Spec.Affinity = "grp"
	entries = append(entries, entry{300 * time.Millisecond, g1}, entry{400 * time.Millisecond, g2})
	// Exclusive tenant.
	ex := trainPod("sp-x", 0.5, 0.5, 30)
	ex.Spec.Exclusion = "solo"
	entries = append(entries, entry{500 * time.Millisecond, ex})
	// Unsatisfiable: joins the affinity group but with a conflicting
	// exclusion label — Algorithm 1 rejects it.
	bad := trainPod("sp-bad", 0.1, 0.1, 10)
	bad.Spec.Affinity = "grp"
	bad.Spec.Exclusion = "other"
	entries = append(entries, entry{600 * time.Millisecond, bad})

	for _, e := range entries {
		e := e
		names = append(names, e.sp.Name)
		s.env.Go("submit-"+e.sp.Name, func(p *sim.Proc) {
			if e.at > 0 {
				p.Sleep(e.at)
			}
			s.create(t, e.sp)
		})
	}
	return names
}

type placement struct {
	gpuID string
	node  string
	phase core.SharePodPhase
}

func collect(t *testing.T, s *stack, names []string) map[string]placement {
	out := map[string]placement{}
	for _, n := range names {
		sp := s.get(t, n)
		out[n] = placement{gpuID: sp.Spec.GPUID, node: sp.Spec.NodeName, phase: sp.Status.Phase}
	}
	return out
}

// TestMixedTraceOutcomes pins the default configuration's behavior on the
// mixed workload (the trace the legacy-equivalence test used before the
// legacy driver was removed): every satisfiable sharePod succeeds, the
// affinity pair co-locates, the exclusive tenant shares with nobody, and
// the contradictory constraint is rejected — plus two identical runs place
// byte-identically and the incremental snapshot survives a full relist.
func TestMixedTraceOutcomes(t *testing.T) {
	run := func() (*stack, map[string]placement) {
		s := newStack(t, 2, 4, func(c *kube.Cluster) (*core.KubeShare, error) {
			return schedfw.Install(c, core.Config{})
		})
		names := mixedTrace(t, s)
		s.env.Run()
		return s, collect(t, s, names)
	}
	s, got := run()
	for name, pl := range got {
		want := core.SharePodSucceeded
		if name == "sp-bad" {
			want = core.SharePodRejected
		}
		if pl.phase != want {
			t.Errorf("%s phase = %s, want %s", name, pl.phase, want)
		}
	}
	if got["sp-g1"].gpuID != got["sp-g2"].gpuID {
		t.Errorf("affinity group split: g1 on %s, g2 on %s", got["sp-g1"].gpuID, got["sp-g2"].gpuID)
	}
	for name, pl := range got {
		if name != "sp-x" && pl.gpuID == got["sp-x"].gpuID && pl.gpuID != "" {
			t.Errorf("exclusive tenant shares %s with %s", pl.gpuID, name)
		}
	}
	if err := s.ks.Sched.VerifySnapshot(); err != nil {
		t.Errorf("snapshot diverged: %v", err)
	}
	_, again := run()
	for name, pl := range got {
		if again[name] != pl {
			t.Errorf("%s not deterministic: %+v vs %+v", name, pl, again[name])
		}
	}
}

// TestBatchedMatchesSequential is the batching property: on a conflict-free
// queue (ample capacity), a single batched cycle places every unit exactly
// where sequential single-unit cycles would.
func TestBatchedMatchesSequential(t *testing.T) {
	run := func(batch int) map[string]placement {
		s := newStack(t, 2, 4, func(c *kube.Cluster) (*core.KubeShare, error) {
			return schedfw.Install(c, core.Config{}, schedfw.WithBatchSize(batch))
		})
		var names []string
		s.env.Go("submit", func(p *sim.Proc) {
			for i := 0; i < 6; i++ {
				sp := trainPod(fmt.Sprintf("sp-%d", i), 0.25+0.1*float64(i%3), 0.2, 30)
				names = append(names, sp.Name)
				s.create(t, sp)
			}
		})
		s.env.Run()
		return collect(t, s, names)
	}
	sequential := run(1)
	batched := run(6)
	if len(sequential) != len(batched) {
		t.Fatalf("placement counts differ: %d vs %d", len(sequential), len(batched))
	}
	for name, w := range sequential {
		if batched[name] != w {
			t.Errorf("%s: batched %+v, sequential %+v", name, batched[name], w)
		}
	}
}

// TestConflictRetry pins intra-batch conflict resolution: two sharePods
// race for the last slice of one GPU in the same batch — the older commits,
// the younger requeues and lands once the first finishes.
func TestConflictRetry(t *testing.T) {
	s := newStack(t, 1, 1, func(c *kube.Cluster) (*core.KubeShare, error) {
		return schedfw.Install(c, core.Config{}, schedfw.WithBatchSize(2))
	})
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, trainPod("sp-old", 0.6, 0.6, 30))
		s.create(t, trainPod("sp-young", 0.6, 0.6, 30))
	})
	s.env.Run()

	old, young := s.get(t, "sp-old"), s.get(t, "sp-young")
	if old.Status.Phase != core.SharePodSucceeded || young.Status.Phase != core.SharePodSucceeded {
		t.Fatalf("phases: old=%s young=%s", old.Status.Phase, young.Status.Phase)
	}
	if !(old.Status.ScheduledTime < young.Status.ScheduledTime) {
		t.Errorf("conflict not serialized: old scheduled %v, young %v",
			old.Status.ScheduledTime, young.Status.ScheduledTime)
	}
	if n := s.c.Obs.Counter(schedfw.MetricSchedConflicts).Value(); n < 1 {
		t.Errorf("batch conflicts = %d, want >= 1", n)
	}
}

// gangPod is a member of an all-or-nothing co-scheduling group.
func gangPod(name, gang string, size int, req float64, steps int) *core.SharePod {
	sp := trainPod(name, req, 0.5, steps)
	sp.Spec.Gang = gang
	sp.Spec.GangSize = size
	return sp
}

// TestGangAdmitsWhole: members arrive staggered; nothing commits until the
// last one, then the whole gang is admitted in one cycle.
func TestGangAdmitsWhole(t *testing.T) {
	s := newStack(t, 1, 4, func(c *kube.Cluster) (*core.KubeShare, error) {
		return schedfw.Install(c, core.Config{})
	})
	s.env.Go("submit", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			s.create(t, gangPod(fmt.Sprintf("gm-%d", i), "team", 3, 0.9, 30))
			if i < 2 {
				p.Sleep(time.Second)
			}
		}
	})
	s.env.Run()

	var schedAt []time.Duration
	for i := 0; i < 3; i++ {
		sp := s.get(t, fmt.Sprintf("gm-%d", i))
		if sp.Status.Phase != core.SharePodSucceeded {
			t.Fatalf("gm-%d phase = %s (%s)", i, sp.Status.Phase, sp.Status.Message)
		}
		schedAt = append(schedAt, sp.Status.ScheduledTime)
	}
	if schedAt[0] != schedAt[1] || schedAt[1] != schedAt[2] {
		t.Errorf("gang not admitted atomically: scheduled at %v", schedAt)
	}
	// The last member arrives at t=2s; admission must be after that.
	if schedAt[0] < 2*time.Second {
		t.Errorf("gang admitted at %v, before its last member existed", schedAt[0])
	}
	if n := s.c.Obs.Counter(schedfw.MetricSchedGangAdmissions).Value(); n != 1 {
		t.Errorf("gang admissions = %d, want 1", n)
	}
}

// TestGangAllOrNothingUnderNodeKill: a gang needs more devices than survive
// a node crash. Two members fit on the remaining node but the third cannot —
// nobody may be placed, even after the capacity hold times out.
func TestGangAllOrNothingUnderNodeKill(t *testing.T) {
	s := newStack(t, 2, 2, func(c *kube.Cluster) (*core.KubeShare, error) {
		return schedfw.Install(c, core.Config{}, schedfw.WithGangTimeout(5*time.Second))
	})
	s.env.Go("chaos", func(p *sim.Proc) {
		// Two members arrive, the gang holds awaiting the third; the crash
		// takes half the capacity before it shows up (the sleep outlives the
		// node lifecycle controller's NotReady grace, so the scheduler's
		// snapshot has absorbed the capacity loss).
		s.create(t, gangPod("gm-0", "team", 3, 0.9, 30))
		s.create(t, gangPod("gm-1", "team", 3, 0.9, 30))
		p.Sleep(2 * time.Second)
		s.c.Nodes[1].Kubelet.Crash()
		p.Sleep(5 * time.Second)
		s.create(t, gangPod("gm-2", "team", 3, 0.9, 30))
	})
	s.env.Run()

	for i := 0; i < 3; i++ {
		sp := s.get(t, fmt.Sprintf("gm-%d", i))
		if sp.Placed() || sp.Terminated() {
			t.Errorf("gm-%d partially admitted: gpuid=%q phase=%s", i, sp.Spec.GPUID, sp.Status.Phase)
		}
	}
	if n := s.c.Obs.Counter(schedfw.MetricSchedGangTimeouts).Value(); n < 1 {
		t.Errorf("gang timeouts = %d, want >= 1", n)
	}
}

// TestGangRejectsWhole: one member's constraints are unsatisfiable inside
// the gang's own transactional reservations (it would join the group's
// device but carries a conflicting exclusion), so every member is rejected.
func TestGangRejectsWhole(t *testing.T) {
	s := newStack(t, 1, 4, func(c *kube.Cluster) (*core.KubeShare, error) {
		return schedfw.Install(c, core.Config{})
	})
	s.env.Go("submit", func(p *sim.Proc) {
		a := gangPod("gm-a", "team", 2, 0.3, 30)
		a.Spec.Affinity = "grp"
		b := gangPod("gm-b", "team", 2, 0.3, 30)
		b.Spec.Affinity = "grp"
		b.Spec.Exclusion = "other"
		s.create(t, a)
		s.create(t, b)
	})
	s.env.Run()

	for _, name := range []string{"gm-a", "gm-b"} {
		sp := s.get(t, name)
		if sp.Status.Phase != core.SharePodRejected {
			t.Errorf("%s phase = %s, want Rejected (%s)", name, sp.Status.Phase, sp.Status.Message)
		}
	}
}

// TestExtenderOnFramework checks the baseline still schedules through the
// framework driver and populates the shared stats.
func TestExtenderOnFramework(t *testing.T) {
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ks, _, err := schedfw.InstallExtender(c, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	workload.RegisterImages(c)
	s := &stack{env: env, c: c, ks: ks}
	s.env.Go("submit", func(p *sim.Proc) {
		s.create(t, trainPod("sp-1", 0.5, 0.5, 30))
		s.create(t, trainPod("sp-2", 0.5, 0.5, 30))
	})
	s.env.Run()
	for _, name := range []string{"sp-1", "sp-2"} {
		sp := s.get(t, name)
		if sp.Status.Phase != core.SharePodSucceeded {
			t.Fatalf("%s phase = %s (%s)", name, sp.Status.Phase, sp.Status.Message)
		}
	}
	if st := ks.Stats(); st.Decisions < 2 {
		t.Errorf("extender decisions = %d, want >= 2", st.Decisions)
	}
}
