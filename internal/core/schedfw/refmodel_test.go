package schedfw

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
)

// refWorld is a control-plane-only cluster — API server, Node objects, one
// scheduler driver — the shape fig16 and the benchmark's sched_churn run.
// The test's own script plays every other component: it creates, completes,
// deletes and requeues sharePods, binds some to a GPUID past the scheduler,
// flaps nodes, and creates and deletes VGPU objects and native GPU pods the
// way DevMgr and the kubelet would.
type refWorld struct {
	env   *sim.Env
	srv   *apiserver.Server
	sched *Scheduler
}

func newRefWorld(t *testing.T, nodes, gpus int, exhaustive bool, opts ...Option) *refWorld {
	t.Helper()
	env := sim.NewEnv()
	w := &refWorld{env: env, srv: apiserver.New(env)}
	for i := 0; i < nodes; i++ {
		res := api.ResourceList{api.ResourceGPU: int64(gpus)}
		if _, err := apiserver.Nodes(w.srv).Create(&api.Node{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("node-%d", i)},
			Status:     api.NodeStatus{Capacity: res, Allocatable: res.Clone(), Ready: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.sched = New(env, w.srv, opts...)
	if exhaustive {
		w.sched.startExhaustive()
	} else {
		w.sched.Start()
	}
	return w
}

func (w *refWorld) counter(name string) int64 { return w.srv.Obs().Counter(name).Value() }

// outcome is what the two drivers must agree on per sharePod.
type outcome struct {
	gpuID, node string
	phase       core.SharePodPhase
	scheduled   time.Duration
	restarts    int
}

func (w *refWorld) outcomes() map[string]outcome {
	out := map[string]outcome{}
	for _, sp := range core.SharePods(w.srv).List() {
		out[sp.Name] = outcome{sp.Spec.GPUID, sp.Spec.NodeName, sp.Status.Phase, sp.Status.ScheduledTime, sp.Status.Restarts}
	}
	return out
}

// soloPod is a sharePod asking for the given compute and memory shares.
func soloPod(name string, util, mem float64) *core.SharePod {
	sp := &core.SharePod{ObjectMeta: api.ObjectMeta{Name: name}}
	sp.Spec.GPURequest, sp.Spec.GPUMem, sp.Spec.GPULimit = util, mem, 1
	return sp
}

// churnScript drives one seeded scenario against a world. Every choice is
// drawn from rng and from the API server's current state, so two worlds whose
// schedulers behave identically see identical scripts — and a divergence in
// scheduling shows up as a divergence in outcomes. Instants are whole
// milliseconds so that script writes do coincide with cycle boundaries.
type churnScript struct {
	t     *testing.T
	w     *refWorld
	rng   *rand.Rand
	steps int
	seq   int
	// log records every action with the state it read, so a divergence is
	// reported at the first instant the two worlds differ.
	log []string
}

func (c *churnScript) logf(format string, args ...any) {
	c.log = append(c.log, fmt.Sprintf("[%v] ", c.w.env.Now())+fmt.Sprintf(format, args...))
}

var (
	discreteShares = []float64{0.25, 0.30, 0.45, 0.50}
	refAff         = []string{"", "", "", "", "", "a1", "a2"}
	refAnti        = []string{"", "", "", "", "t1", "t2"}
	refExcl        = []string{"", "", "", "", "", "", "x1"}
)

func (c *churnScript) newSharePod() *core.SharePod {
	c.seq++
	sp := &core.SharePod{ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("sp-%04d", c.seq)}}
	switch c.rng.Intn(10) {
	case 0, 1, 2: // continuous shape
		sp.Spec.GPURequest = float64(c.rng.Intn(90)+5) / 100
		sp.Spec.GPUMem = float64(c.rng.Intn(90)+5) / 100
	case 3: // byte-quantity memory
		sp.Spec.GPURequest = discreteShares[c.rng.Intn(len(discreteShares))]
		sp.Spec.GPUMemBytes = int64(c.rng.Intn(12)+1) << 30
	default: // discrete shape: request = mem, few classes (the memo's case)
		sp.Spec.GPURequest = discreteShares[c.rng.Intn(len(discreteShares))]
		sp.Spec.GPUMem = sp.Spec.GPURequest
	}
	sp.Spec.GPULimit = 1
	sp.Spec.Affinity = refAff[c.rng.Intn(len(refAff))]
	sp.Spec.AntiAffinity = refAnti[c.rng.Intn(len(refAnti))]
	sp.Spec.Exclusion = refExcl[c.rng.Intn(len(refExcl))]
	return sp
}

func (c *churnScript) create(sp *core.SharePod) {
	if _, err := core.SharePods(c.w.srv).Create(sp); err != nil {
		c.t.Fatalf("create %s: %v", sp.Name, err)
	}
}

// pick returns a random sharePod satisfying keep, or nil.
func (c *churnScript) pick(keep func(*core.SharePod) bool) *core.SharePod {
	var match []*core.SharePod
	for _, sp := range core.SharePods(c.w.srv).List() {
		if keep(sp) {
			match = append(match, sp)
		}
	}
	if len(match) == 0 {
		return nil
	}
	return match[c.rng.Intn(len(match))]
}

func running(sp *core.SharePod) bool { return sp.Placed() && !sp.Terminated() }
func waiting(sp *core.SharePod) bool { return !sp.Placed() && !sp.Terminated() }

func (c *churnScript) complete(name string) {
	if _, err := core.SharePods(c.w.srv).MutateStatus(name, func(sp *core.SharePod) error {
		sp.Status.Phase = core.SharePodSucceeded
		sp.Status.FinishTime = c.w.env.Now()
		return nil
	}); err != nil {
		c.t.Fatalf("complete %s: %v", name, err)
	}
}

func (c *churnScript) setReady(node string, ready bool) {
	if _, err := apiserver.Nodes(c.w.srv).MutateStatus(node, func(n *api.Node) error {
		n.Status.Ready = ready
		return nil
	}); err != nil {
		c.t.Fatalf("node %s: %v", node, err)
	}
}

func (c *churnScript) step() {
	srv := c.w.srv
	switch r := c.rng.Intn(100); {
	case r < 40: // a burst of solo arrivals
		n := c.rng.Intn(8) + 1
		for i := 0; i < n; i++ {
			sp := c.newSharePod()
			c.logf("create %s %+v", sp.Name, core.RequestOf(sp))
			c.create(sp)
		}
	case r < 45: // a gang, sometimes short a member so that it holds and expires
		size := c.rng.Intn(2) + 2
		arrive := size
		if c.rng.Intn(3) == 0 {
			arrive--
		}
		gang := fmt.Sprintf("gang-%d", c.seq)
		for i := 0; i < arrive; i++ {
			sp := c.newSharePod()
			sp.Spec.Affinity, sp.Spec.AntiAffinity, sp.Spec.Exclusion = "", "", ""
			sp.Spec.Gang, sp.Spec.GangSize = gang, size
			c.logf("create %s gang %s %d/%d", sp.Name, gang, arrive, size)
			c.create(sp)
		}
	case r < 65: // completions
		for i := c.rng.Intn(4) + 1; i > 0; i-- {
			if sp := c.pick(running); sp != nil {
				c.logf("complete %s on %s", sp.Name, sp.Spec.GPUID)
				c.complete(sp.Name)
			}
		}
	case r < 73: // delete a waiting sharePod — parked, more often than not
		if sp := c.pick(waiting); sp != nil {
			c.logf("delete %s", sp.Name)
			if err := core.SharePods(srv).Delete(sp.Name); err != nil {
				c.t.Fatalf("delete %s: %v", sp.Name, err)
			}
		}
	case r < 80: // a placed sharePod loses its pod
		if sp := c.pick(running); sp != nil {
			c.logf("requeue %s from %s", sp.Name, sp.Spec.GPUID)
			core.RequeueSharePod(srv, sp.Name, sp.Status.BoundPod)
		}
	case r < 86: // node NotReady → Ready
		nodes := apiserver.Nodes(srv).List()
		n := nodes[c.rng.Intn(len(nodes))]
		c.logf("node %s ready=%v", n.Name, !n.Status.Ready)
		c.setReady(n.Name, !n.Status.Ready)
	case r < 92: // DevMgr materializes a vGPU the scheduler asked for
		if sp := c.pick(func(sp *core.SharePod) bool {
			_, err := core.VGPUs(srv).Get(sp.Spec.GPUID)
			return running(sp) && err != nil
		}); sp != nil {
			c.logf("vgpu create %s", sp.Spec.GPUID)
			if _, err := core.VGPUs(srv).Create(&core.VGPU{
				ObjectMeta: api.ObjectMeta{Name: sp.Spec.GPUID},
				Spec:       core.VGPUSpec{GPUID: sp.Spec.GPUID, NodeName: sp.Spec.NodeName},
			}); err != nil {
				c.t.Fatalf("vgpu %s: %v", sp.Spec.GPUID, err)
			}
		}
	case r < 94: // a user binds a sharePod to a GPUID of their choosing, past the scheduler
		if host := c.pick(running); host != nil {
			sp := c.newSharePod()
			sp.Spec.GPURequest, sp.Spec.GPUMem, sp.Spec.GPUMemBytes = 0.05, 0.05, 0
			sp.Spec.Affinity = refAff[5+c.rng.Intn(2)]
			sp.Spec.GPUID, sp.Spec.NodeName = host.Spec.GPUID, host.Spec.NodeName
			sp.Status.Phase = core.SharePodScheduled
			c.logf("create %s bound to %s aff %s", sp.Name, sp.Spec.GPUID, sp.Spec.Affinity)
			c.create(sp)
		}
	case r < 96: // DevMgr releases a vGPU (idle or not: the object goes, tenants keep the device)
		if vs := core.VGPUs(srv).List(); len(vs) > 0 {
			v := vs[c.rng.Intn(len(vs))]
			c.logf("vgpu delete %s", v.Name)
			if err := core.VGPUs(srv).Delete(v.Name); err != nil {
				c.t.Fatalf("vgpu delete %s: %v", v.Name, err)
			}
		}
	default: // a native GPU pod comes or goes
		pods := apiserver.Pods(srv).List()
		if len(pods) > 0 && c.rng.Intn(2) == 0 {
			p := pods[c.rng.Intn(len(pods))]
			c.logf("native pod delete %s", p.Name)
			if err := apiserver.Pods(srv).Delete(p.Name); err != nil {
				c.t.Fatalf("pod delete %s: %v", p.Name, err)
			}
			return
		}
		c.seq++
		nodes := apiserver.Nodes(srv).List()
		pod := &api.Pod{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("native-%04d", c.seq)},
			Spec: api.PodSpec{
				NodeName:   nodes[c.rng.Intn(len(nodes))].Name,
				Containers: []api.Container{{Name: "main", Requests: api.ResourceList{api.ResourceGPU: 1}}},
			},
		}
		c.logf("native pod create %s on %s", pod.Name, pod.Spec.NodeName)
		if _, err := apiserver.Pods(srv).Create(pod); err != nil {
			c.t.Fatalf("pod %s: %v", pod.Name, err)
		}
	}
}

// run is the script proc: the churn, then a drain to quiescence — nodes back
// to Ready, native pods gone, everything placed completed until nothing is
// left waiting (what cannot place even on an empty pool, an incomplete gang,
// is deleted).
func (c *churnScript) run(p *sim.Proc) {
	srv := c.w.srv
	for i := 0; i < c.steps; i++ {
		p.Sleep(time.Duration(c.rng.Intn(30)+1) * time.Millisecond)
		c.step()
	}
	for _, n := range apiserver.Nodes(srv).List() {
		c.setReady(n.Name, true)
	}
	for _, pod := range apiserver.Pods(srv).List() {
		if err := apiserver.Pods(srv).Delete(pod.Name); err != nil {
			c.t.Fatalf("pod delete %s: %v", pod.Name, err)
		}
	}
	for round := 0; round < 400; round++ {
		p.Sleep(40 * time.Millisecond)
		left := 0
		for _, sp := range core.SharePods(srv).List() {
			switch {
			case running(sp):
				c.complete(sp.Name)
				left++
			case waiting(sp):
				left++
				if round > 0 && round%25 == 0 {
					c.logf("drain: delete %s", sp.Name)
					if err := core.SharePods(srv).Delete(sp.Name); err != nil {
						c.t.Fatalf("delete %s: %v", sp.Name, err)
					}
				}
			}
		}
		if left == 0 {
			return
		}
	}
	c.t.Errorf("drain did not reach quiescence")
}

type churnResult struct {
	outcomes   map[string]outcome
	log        []string
	decisions  int64
	noCapacity int64
	skipped    int64
	created    int
}

func runChurn(t *testing.T, seed int64, steps int, exhaustive bool, opts ...Option) churnResult {
	t.Helper()
	w := newRefWorld(t, 2, 2, exhaustive, append([]Option{WithGangTimeout(300 * time.Millisecond)}, opts...)...)
	c := &churnScript{t: t, w: w, rng: rand.New(rand.NewSource(seed)), steps: steps}
	w.env.Go("churn", c.run)
	w.env.Run()
	if err := w.sched.VerifySnapshot(); err != nil {
		t.Errorf("seed %d exhaustive=%v: %v", seed, exhaustive, err)
	}
	if n := len(w.sched.parked); n != 0 {
		t.Errorf("seed %d exhaustive=%v: %d units still parked at quiescence", seed, exhaustive, n)
	}
	if n := w.srv.Obs().Gauge(MetricSchedUnschedulable).Value(); n != 0 {
		t.Errorf("seed %d exhaustive=%v: %s = %d at quiescence", seed, exhaustive, MetricSchedUnschedulable, n)
	}
	return churnResult{
		outcomes:   w.outcomes(),
		log:        c.log,
		decisions:  w.counter(core.MetricSchedDecisions),
		noCapacity: w.counter(core.MetricSchedNoCapacity),
		skipped:    w.counter(MetricSchedSkipped),
		created:    c.seq,
	}
}

// TestParkingMatchesExhaustiveDriver is the reference-model property: on
// seeded churn over a small pool the production driver — which parks
// unschedulable units and memoizes failed request classes — and the
// exhaustive driver — which re-decides every pending unit every cycle — make
// the same placements at the same instants, in the same number of cycles.
func TestParkingMatchesExhaustiveDriver(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	for _, batch := range []int{1, 8, 64} {
		batch := batch
		t.Run(fmt.Sprintf("seq-%d", batch), func(t *testing.T) {
			var skipped int64
			for seed := int64(1); seed <= int64(seeds); seed++ {
				want := runChurn(t, seed, 200, true, WithBatchSize(batch))
				got := runChurn(t, seed, 200, false, WithBatchSize(batch))
				for i := range want.log {
					if i >= len(got.log) || got.log[i] != want.log[i] {
						t.Fatalf("seed %d: scripts diverge at action %d:\n  exhaustive: %s\n  parking:    %s",
							seed, i, want.log[i], at(got.log, i))
					}
				}
				if len(got.outcomes) != len(want.outcomes) {
					t.Fatalf("seed %d: %d sharePods, exhaustive driver has %d", seed, len(got.outcomes), len(want.outcomes))
				}
				for name, w := range want.outcomes {
					if g := got.outcomes[name]; g != w {
						t.Errorf("seed %d: %s = %+v, exhaustive driver %+v", seed, name, g, w)
					}
				}
				if got.noCapacity != want.noCapacity {
					t.Errorf("seed %d: %d NoCapacity cycles, exhaustive driver %d", seed, got.noCapacity, want.noCapacity)
				}
				if got.decisions > want.decisions {
					t.Errorf("seed %d: %d decisions, more than the exhaustive driver's %d", seed, got.decisions, want.decisions)
				}
				if want.skipped != 0 {
					t.Errorf("seed %d: exhaustive driver skipped %d units", seed, want.skipped)
				}
				skipped += got.skipped
			}
			if skipped == 0 {
				t.Errorf("no unit was ever skipped: the scenario does not exercise parking")
			}
		})
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(script ended)"
}

// TestParkingBoundsDecisions pins what parking buys on the requeue-storm
// shape — a backlog of a few request classes several times the pool, drained
// by steady completions: at most two decisions per sharePod, where the
// exhaustive driver re-decides the whole backlog on every cycle.
func TestParkingBoundsDecisions(t *testing.T) {
	const pods = 400
	run := func(exhaustive bool) (decisions int64, out map[string]outcome) {
		w := newRefWorld(t, 2, 2, exhaustive, WithBatchSize(16))
		rng := rand.New(rand.NewSource(7))
		w.env.Go("churn", func(p *sim.Proc) {
			for i := 0; i < pods; i++ {
				share := discreteShares[rng.Intn(len(discreteShares))]
				if _, err := core.SharePods(w.srv).Create(soloPod(fmt.Sprintf("sp-%04d", i), share, share)); err != nil {
					t.Errorf("create: %v", err)
				}
				if i%40 == 39 {
					p.Sleep(100 * time.Millisecond)
				}
			}
			// Retire whatever has run 200 ms, every 50 ms, until all are done
			// (bounded, so a driver that strands units fails instead of hanging).
			for done, sweep := 0, 0; done < pods && sweep < 4000; sweep++ {
				p.Sleep(50 * time.Millisecond)
				for _, sp := range core.SharePods(w.srv).List() {
					if running(sp) && w.env.Now()-sp.Status.ScheduledTime >= 200*time.Millisecond {
						if _, err := core.SharePods(w.srv).MutateStatus(sp.Name, func(cur *core.SharePod) error {
							cur.Status.Phase = core.SharePodSucceeded
							return nil
						}); err != nil {
							t.Errorf("retire: %v", err)
						}
						done++
					}
				}
			}
		})
		w.env.Run()
		return w.counter(core.MetricSchedDecisions), w.outcomes()
	}
	exhaustive, want := run(true)
	parking, got := run(false)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, exhaustive driver %+v", name, got[name], w)
		}
	}
	if exhaustive <= 2*pods {
		t.Errorf("exhaustive driver made %d decisions for %d sharePods: the scenario has no requeue storm", exhaustive, pods)
	}
	if parking > 2*pods {
		t.Errorf("%d decisions for %d sharePods, want at most 2 each (exhaustive driver: %d)", parking, pods, exhaustive)
	}
}

// TestExpiredGangHoldDoesNotStrandYoungerUnits: an older, incomplete gang
// holds the whole pool inside each cycle's transaction, so the solo units
// behind it find NoCapacity — against reservations that never commit. The
// hold expires by timer, with no release delta anywhere in the cluster. The
// solo units must place in that very cycle; had they been parked on the
// hold's evidence, nothing would ever wake them.
func TestExpiredGangHoldDoesNotStrandYoungerUnits(t *testing.T) {
	const hold = 2 * time.Second
	run := func(exhaustive bool) map[string]outcome {
		w := newRefWorld(t, 1, 2, exhaustive, WithBatchSize(8), WithGangTimeout(hold))
		w.env.Go("submit", func(p *sim.Proc) {
			for i := 0; i < 2; i++ { // two of three: the gang never completes
				sp := soloPod(fmt.Sprintf("gm-%d", i), 0.9, 0.5)
				sp.Spec.Gang, sp.Spec.GangSize = "team", 3
				if _, err := core.SharePods(w.srv).Create(sp); err != nil {
					t.Errorf("create: %v", err)
				}
			}
			p.Sleep(100 * time.Millisecond)
			for i := 0; i < 3; i++ {
				if _, err := core.SharePods(w.srv).Create(soloPod(fmt.Sprintf("solo-%d", i), 0.5, 0.5)); err != nil {
					t.Errorf("create: %v", err)
				}
			}
		})
		w.env.Run()
		if n := w.counter(MetricSchedGangTimeouts); n != 1 {
			t.Errorf("exhaustive=%v: gang timeouts = %d, want 1", exhaustive, n)
		}
		return w.outcomes()
	}
	want, got := run(true), run(false)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("solo-%d", i)
		g := got[name]
		if g.gpuID == "" {
			t.Fatalf("%s stranded behind the expired gang hold", name)
		}
		if g.scheduled < hold || g.scheduled > hold+100*time.Millisecond {
			t.Errorf("%s scheduled at %v, want in the cycle the hold expired (%v)", name, g.scheduled, hold)
		}
		if g != want[name] {
			t.Errorf("%s = %+v, exhaustive driver %+v", name, g, want[name])
		}
	}
	for i := 0; i < 2; i++ {
		if g := got[fmt.Sprintf("gm-%d", i)]; g.gpuID != "" {
			t.Errorf("gm-%d of an incomplete gang was placed on %s", i, g.gpuID)
		}
	}
}

// TestDeletedWhileParkedLeavesNoEntry: a sharePod deleted while parked must
// not stay in the parked set — it would keep a successor of the same name
// from ever being decided.
func TestDeletedWhileParkedLeavesNoEntry(t *testing.T) {
	w := newRefWorld(t, 1, 1, false, WithBatchSize(8))
	mk := func(name string) *core.SharePod { return soloPod(name, 0.8, 0.8) }
	sps := core.SharePods(w.srv)
	var parkedMidRun int
	w.env.Go("script", func(p *sim.Proc) {
		for _, name := range []string{"tenant", "waiter"} {
			if _, err := sps.Create(mk(name)); err != nil {
				t.Errorf("create %s: %v", name, err)
			}
		}
		p.Sleep(time.Second)
		parkedMidRun = len(w.sched.parked)
		if n := w.srv.Obs().Gauge(MetricSchedUnschedulable).Value(); n != 1 {
			t.Errorf("%s = %d with one unit parked", MetricSchedUnschedulable, n)
		}
		if err := sps.Delete("waiter"); err != nil {
			t.Errorf("delete: %v", err)
		}
		p.Sleep(time.Second)
		if n := len(w.sched.parked); n != 0 {
			t.Errorf("%d parked entries after the parked sharePod was deleted", n)
		}
		// A successor of the same name, with the generation unmoved, is a new
		// unit: it must be decided (and parked afresh), not passed over.
		before := w.counter(core.MetricSchedDecisions)
		if _, err := sps.Create(mk("waiter")); err != nil {
			t.Errorf("recreate: %v", err)
		}
		p.Sleep(time.Second)
		if w.counter(core.MetricSchedDecisions) != before+1 {
			t.Errorf("recreated sharePod was not decided")
		}
		if _, err := sps.MutateStatus("tenant", func(sp *core.SharePod) error {
			sp.Status.Phase = core.SharePodSucceeded
			return nil
		}); err != nil {
			t.Errorf("complete: %v", err)
		}
	})
	w.env.Run()
	if parkedMidRun != 1 {
		t.Errorf("%d units parked behind the full device, want 1", parkedMidRun)
	}
	if sp, err := sps.Get("waiter"); err != nil || !sp.Placed() {
		t.Errorf("waiter not placed after the release: %+v, %v", sp, err)
	}
	if n := len(w.sched.parked); n != 0 {
		t.Errorf("%d units parked at quiescence", n)
	}
	if err := w.sched.VerifySnapshot(); err != nil {
		t.Error(err)
	}
}
