// Package schedfw is the scheduling framework: the batched, plugin-phased
// KubeShare-Sched driver, plus the extender baseline (extender.go) on the
// same wake loop. Each cycle drains the pending queue into a batch, runs every unit
// through the fwk engine (pre-filter → filter → score → allocate → reserve)
// against a transactional view of the incremental snapshot, resolves
// intra-batch conflicts through the reservation journal, and commits the
// staged placements in bulk through the API server.
//
// The default configuration — the Algorithm 1 plugin set, batch size 1 —
// decides one sharePod per cycle exactly as the paper's scheduler does;
// batching and gang scheduling are opt-in extensions on the same pipeline.
package schedfw

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/core/schedfw/plugins"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Framework-specific metric names (the shared scheduling families live in
// package core).
const (
	// MetricSchedConflicts counts intra-batch reservation conflicts: a unit
	// whose pipeline run found no capacity in a cycle where an earlier unit
	// of the same batch had already reserved some. Units passed over without
	// a pipeline run (MetricSchedSkipped) are not counted.
	MetricSchedConflicts = "kubeshare_sched_batch_conflicts_total"
	// MetricSchedUnschedulable is the number of sharePods parked right now:
	// pending, known to find no capacity, and not re-decided until a release
	// moves the snapshot's generation.
	MetricSchedUnschedulable = "kubeshare_sched_unschedulable_sharepods"
	// MetricSchedSkipped counts units a cycle passed over without running
	// the pipeline — parked since an earlier cycle, or carrying a request
	// identical to one that already found no capacity in this cycle.
	MetricSchedSkipped = "kubeshare_sched_skipped_total"
	// MetricSchedGangAdmissions counts gangs admitted all-or-nothing.
	MetricSchedGangAdmissions = "kubeshare_sched_gang_admissions_total"
	// MetricSchedGangTimeouts counts gangs whose capacity hold expired.
	MetricSchedGangTimeouts = "kubeshare_sched_gang_timeouts_total"
	// metricPhasePrefix prefixes the per-phase run counters
	// (kubeshare_sched_phase_<phase>_runs_total). They count pipeline runs
	// only: a skipped unit runs no phase.
	metricPhasePrefix = "kubeshare_sched_phase_"
)

// PhaseMetric returns the run-counter name for a fwk phase.
func PhaseMetric(phase string) string { return metricPhasePrefix + phase + "_runs_total" }

// Defaults for the framework knobs.
const (
	// DefaultBatchSize keeps the driver in compat mode: one placement per
	// cycle, exactly the legacy loop's pace.
	DefaultBatchSize = 1
	// DefaultGangTimeout bounds how long an incomplete gang may hold
	// reserved capacity against younger work.
	DefaultGangTimeout = 30 * time.Second
)

type options struct {
	cfg         core.SchedulerConfig
	batchSize   int
	gangTimeout time.Duration
	plugins     []fwk.Plugin
}

// Option configures the framework driver.
type Option func(*options)

// WithConfig seeds every knob a core.SchedulerConfig carries (cycle
// latency, overcommit factor) in one option.
func WithConfig(cfg core.SchedulerConfig) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithBatchSize sets how many placements one cycle may stage. n <= 1 is
// compat mode; larger batches amortize the cycle latency across n
// decisions.
func WithBatchSize(n int) Option {
	return func(o *options) { o.batchSize = n }
}

// WithGangTimeout bounds an incomplete gang's capacity hold.
func WithGangTimeout(d time.Duration) Option {
	return func(o *options) { o.gangTimeout = d }
}

// WithPlugins replaces the default Algorithm 1 plugin set.
func WithPlugins(ps ...fwk.Plugin) Option {
	return func(o *options) { o.plugins = ps }
}

// Scheduler is the framework driver. It owns everything the plugins must
// not: the watch streams and incremental snapshot, the cycle clock, the
// batch transaction, gang holds, and the bulk commit path to the API server.
type Scheduler struct {
	env    *sim.Env
	srv    *apiserver.Server
	cfg    core.SchedulerConfig
	engine *fwk.Engine

	batchSize   int
	gangTimeout time.Duration

	snap   *core.Snapshot
	wake   *sim.Queue[struct{}]
	nextID int
	proc   *sim.Proc

	reflectors []*apiserver.Reflector
	watchProcs []*sim.Proc
	timerProcs []*sim.Proc

	gangs map[string]*gangState
	// timerDeadline is the earliest armed gang-timeout wake ( 0 = none).
	timerDeadline time.Duration
	// epoch is the apiserver restart epoch the cross-cycle state was built
	// in; a mismatch before a cycle invalidates gang holds and the parked
	// set (see checkEpoch).
	epoch int64

	// parked holds the solo units that found NoCapacity at parkedGen, the
	// snapshot's release generation: cycles pass them over until the
	// generation moves (runCycle clears the set), the sharePod sees any
	// event of its own (apply), or the apiserver restarts (checkEpoch).
	parked    map[string]struct{}
	parkedGen uint64
	// failed is the cycle's memo of request values that found NoCapacity
	// against the cycle transaction: a later unit with an identical request
	// is parked without a pipeline run. Reset every cycle and after every
	// gang attempt (a rollback may hand capacity back to the transaction).
	failed map[core.Request]struct{}
	// scratch is the staging loop's one unit, reused sharePod to sharePod.
	scratch fwk.Unit

	tracer       *obs.Tracer
	recorder     *obs.Recorder
	decisions    *obs.Counter
	requeues     *obs.Counter
	noCapacity   *obs.Counter
	depth        *obs.Gauge
	schedHist    *obs.Histogram
	conflicts    *obs.Counter
	parkedNow    *obs.Gauge
	skipped      *obs.Counter
	gangAdmitted *obs.Counter
	gangTimeouts *obs.Counter
	phaseRuns    map[string]*obs.Counter
}

// New creates the framework driver; Start launches it. With no options it
// is the legacy scheduler, re-expressed: Algorithm 1 as the default plugin
// set, batch size 1, identical watch wiring, counters, spans and events.
func New(env *sim.Env, srv *apiserver.Server, opts ...Option) *Scheduler {
	o := options{batchSize: DefaultBatchSize, gangTimeout: DefaultGangTimeout}
	for _, opt := range opts {
		opt(&o)
	}
	if o.cfg.CycleLatency == 0 {
		o.cfg.CycleLatency = core.DefaultCycleLatency
	}
	if o.batchSize < 1 {
		o.batchSize = 1
	}
	if o.plugins == nil {
		o.plugins = plugins.Default()
	}
	rt := srv.Obs()
	s := &Scheduler{
		env:          env,
		srv:          srv,
		cfg:          o.cfg,
		engine:       fwk.NewEngine(o.plugins),
		batchSize:    o.batchSize,
		gangTimeout:  o.gangTimeout,
		snap:         core.NewSnapshot(o.cfg.MemOvercommitFactor),
		wake:         sim.NewQueue[struct{}](env),
		gangs:        make(map[string]*gangState),
		parked:       make(map[string]struct{}),
		failed:       make(map[core.Request]struct{}),
		tracer:       rt.Tracer(),
		recorder:     rt.EventSource("kubeshare-sched"),
		decisions:    rt.Counter(core.MetricSchedDecisions),
		requeues:     rt.Counter(core.MetricSchedRequeues),
		noCapacity:   rt.Counter(core.MetricSchedNoCapacity),
		depth:        rt.Gauge(core.MetricSchedPending),
		schedHist:    rt.Histogram(core.MetricSchedLatency),
		conflicts:    rt.Counter(MetricSchedConflicts),
		parkedNow:    rt.Gauge(MetricSchedUnschedulable),
		skipped:      rt.Counter(MetricSchedSkipped),
		gangAdmitted: rt.Counter(MetricSchedGangAdmissions),
		gangTimeouts: rt.Counter(MetricSchedGangTimeouts),
		phaseRuns:    make(map[string]*obs.Counter, len(fwk.Phases)),
	}
	for _, ph := range fwk.Phases {
		s.phaseRuns[ph] = rt.Counter(PhaseMetric(ph))
	}
	s.engine.SetPhaseHook(func(ph string) { s.phaseRuns[ph].Inc() })
	return s
}

// Stats implements core.Sched.
func (s *Scheduler) Stats() core.SchedStats { return core.ReadSchedStats(s.srv.Obs()) }

// VerifySnapshot implements core.Sched: the snapshot's persistent pool — the
// one every cycle borrows — must be exactly the pool a full relist would
// build, with its residual order intact, and every parked unit must still be
// pending (a sharePod that left while parked leaves no entry behind).
func (s *Scheduler) VerifySnapshot() error {
	for name := range s.parked {
		if !s.snap.IsPending(name) {
			return fmt.Errorf("parked sharePod %s is not pending", name)
		}
	}
	pool := s.snap.Pool(nil)
	if err := pool.VerifyIndex(); err != nil {
		return err
	}
	return core.DiffPools(pool, core.BuildPoolWithFactor(s.srv, nil, s.cfg.MemOvercommitFactor))
}

// Start launches the watch and scheduling loops.
func (s *Scheduler) Start() {
	s.startWatches()
	s.proc = s.env.Go("kubeshare-sched", s.loop)
}

// startWatches launches the four replayed reflector streams that feed the
// snapshot.
func (s *Scheduler) startWatches() {
	s.epoch = s.srv.Epoch()
	for _, kind := range []string{core.KindSharePod, "Pod", core.KindVGPU, "Node"} {
		r := s.srv.NewNamedReflector("kubeshare-sched", kind, apiserver.WatchOptions{Replay: true})
		s.reflectors = append(s.reflectors, r)
		isPod := kind == "Pod"
		s.watchProcs = append(s.watchProcs, s.env.Go("kubeshare-sched-watch-"+kind, func(p *sim.Proc) {
			for {
				ev, ok := r.Get(p)
				if !ok {
					return
				}
				s.apply(ev)
				if isPod && ev.Type == store.Deleted {
					s.onPodDeleted(ev.Object.(*api.Pod))
				}
				s.kick()
			}
		}))
	}
}

// Stop terminates the scheduler.
func (s *Scheduler) Stop() {
	if s.proc != nil {
		s.proc.Kill(nil)
	}
	for _, p := range s.watchProcs {
		p.Kill(nil)
	}
	for _, p := range s.timerProcs {
		if !p.Finished() {
			p.Kill(nil)
		}
	}
	for _, r := range s.reflectors {
		r.Stop()
	}
}

// onPodDeleted requeues a sharePod whose bound pod vanished while the
// sharePod itself is still live (node eviction, kubelet restart, vGPU
// loss) — identical to the legacy recovery edge.
func (s *Scheduler) onPodDeleted(pod *api.Pod) {
	spName := pod.Labels[core.LabelSharePod]
	if spName == "" {
		return
	}
	sp, err := core.SharePods(s.srv).Get(spName)
	if err != nil || sp.Status.BoundPod != pod.Name {
		return // gone, or the deletion is a stale predecessor's
	}
	updated := core.RequeueSharePod(s.srv, spName)
	if updated == nil {
		return
	}
	s.requeues.Inc()
	s.tracer.Mark("kubeshare-sched", "requeue", api.Key(updated), "lost pod "+pod.Name)
	s.recorder.Eventf(core.KindSharePod, spName, obs.EventWarning, "Requeued",
		"bound pod %s lost; rescheduling", pod.Name)
	s.apply(store.Event{Type: store.Modified, Object: updated})
}

// apply folds an event into the snapshot. Any event of a sharePod's own
// unparks it: it may have left the pending set (deleted, placed elsewhere,
// terminated) or changed what it asks for, and either way the NoCapacity
// verdict it was parked on no longer describes it.
func (s *Scheduler) apply(ev store.Event) {
	s.snap.Apply(ev)
	if sp, ok := ev.Object.(*core.SharePod); ok {
		delete(s.parked, sp.Name)
	}
}

func (s *Scheduler) kick() {
	if s.wake.Len() == 0 {
		s.wake.Put(struct{}{})
	}
}

// loop coalesces wakeups: a burst of watch deliveries in one sim instant
// triggers one cycle, not one per delivery. After the first kick the loop
// yields so every same-instant watch proc lands its delta in the snapshot,
// then drains the redundant kicks those deliveries queued.
func (s *Scheduler) loop(p *sim.Proc) {
	for {
		if _, ok := s.wake.Get(p); !ok {
			return
		}
		p.Yield()
		s.drainWake()
		s.checkEpoch()
		for s.runCycle(p) {
		}
	}
}

// checkEpoch invalidates cross-cycle scheduler state after an apiserver
// restart. Per-cycle reservations die with their transaction, but gang
// holds persist in s.gangs — and their hold windows were armed against
// watch state that no longer exists. Dropping them requeues the gangs
// cleanly: members are still pending in the (relist-rebuilt) snapshot, so
// the next cycle re-attempts admission and re-arms fresh holds. The parked
// set goes with them: a torn-tail restore may have reverted writes the
// verdicts were reached against.
func (s *Scheduler) checkEpoch() {
	e := s.srv.Epoch()
	if e == s.epoch {
		return
	}
	s.epoch = e
	clear(s.gangs)
	clear(s.parked)
}

func (s *Scheduler) drainWake() {
	for {
		if _, ok := s.wake.TryGet(); !ok {
			return
		}
	}
}

// staged is one decision awaiting the cycle's bulk commit.
type staged struct {
	name    string
	key     string
	created time.Duration
	dec     core.Decision
}

// runCycle runs one scheduling cycle: take the pending set oldest first,
// decide units against the cycle transaction until the batch is full, then
// commit the staged decisions in bulk. It reports whether any unit
// progressed (was staged); all-NoCapacity means wait for a cluster change.
//
// A pending unit is in one of three states. Active units run the pipeline.
// Parked units — solo units that found NoCapacity and have seen no release
// since — are passed over, so a cycle costs what its placeable units cost
// rather than what the backlog weighs. Held gangs are re-attempted every
// cycle (see scheduleGang). Parking changes no cycle, sleep or placement: a
// parked unit is one whose pipeline run is known to end in NoCapacity.
func (s *Scheduler) runCycle(p *sim.Proc) bool {
	pending := s.snap.Pending()
	s.depth.Set(int64(len(pending)))
	if len(pending) == 0 {
		s.parkedNow.Set(int64(len(s.parked)))
		return false
	}
	cycleStart := s.env.Now()
	p.Sleep(s.cfg.CycleLatency)
	// The watch procs drained any deltas during the sleep; the snapshot is
	// current as of now. The batch stages on the snapshot's own pool.
	txn := fwk.NewTxn(s.snap.Pool(s.newGPUID))
	if gen := s.snap.ReleaseGen(); gen != s.parkedGen {
		// Capacity was released since the parked verdicts: everyone is active.
		clear(s.parked)
		s.parkedGen = gen
	}
	clear(s.failed)

	var out []staged
	progressed := s.stage(pending, txn, &out)
	s.parkedNow.Set(int64(len(s.parked)))

	if s.batchSize > 1 {
		s.tracer.Record("kubeshare-sched", "batch",
			fmt.Sprintf("cycle/%d", len(pending)),
			fmt.Sprintf("staged=%d journal=%d", len(out), txn.Len()), cycleStart)
	}
	// Hand the pool back as borrowed — gang holds included — before the first
	// commit; each placement returns through snap.Placed as it lands.
	txn.Rollback(0)
	for _, st := range out {
		s.commit(st, cycleStart)
	}
	if progressed == 0 {
		s.noCapacity.Inc()
		return false
	}
	return true
}

// resolve reads a pending unit's current copy from the API server. It
// returns nil for a parked unit — before paying for the read — and for one
// the server no longer has pending (the snapshot may trail the server by the
// deliveries of this instant).
func (s *Scheduler) resolve(name string) *core.SharePod {
	if _, ok := s.parked[name]; ok {
		s.skipped.Inc()
		return nil
	}
	return s.live(name)
}

// live reads a sharePod from the API server, or nil when it is gone, placed
// or terminated there.
func (s *Scheduler) live(name string) *core.SharePod {
	sp, err := core.SharePods(s.srv).Get(name)
	if err != nil || sp.Placed() || sp.Terminated() {
		return nil
	}
	return sp
}

// stage is the cycle's staging loop: walk the pending units in age order
// until the batch is full, admitting gangs whole and deciding solo units one
// at a time against the live transaction. Each unit is read from the API
// server as the loop reaches it, exactly the legacy pace.
//
// A solo unit whose pipeline run ends in NoCapacity is parked and its
// request recorded in the cycle memo; a later unit with an identical request
// is parked on that evidence alone. Neither happens while the transaction
// carries an uncommitted gang hold: the hold vanishes with the transaction
// (or at gangTimeout) without any release delta, so a verdict reached
// against it would strand the unit.
func (s *Scheduler) stage(pending []*core.SharePod, txn *fwk.Txn, out *[]staged) int {
	progressed := 0
	held := false
	seenGang := map[string]bool{}
	for i := range pending {
		if progressed >= s.batchSize {
			break
		}
		sp := s.resolve(pending[i].Name)
		if sp == nil {
			continue
		}
		if g := gangOf(sp); g != "" {
			if seenGang[g] {
				continue
			}
			seenGang[g] = true
			n, holds := s.scheduleGang(g, pending, txn, out)
			progressed += n
			held = held || holds
			clear(s.failed)
			continue
		}
		s.scratch = unitOf(sp)
		u := &s.scratch
		if _, ok := s.failed[u.Req]; ok {
			s.parked[u.Name] = struct{}{}
			s.skipped.Inc()
			continue
		}
		dec := s.engine.Schedule(u, txn)
		s.decisions.Inc()
		switch dec.Outcome {
		case core.Assigned, core.NewDevice, core.Rejected:
			*out = append(*out, staged{name: sp.Name, key: api.Key(sp), created: sp.CreationTime, dec: dec})
			progressed++
		default: // NoCapacity: the unit stays pending.
			if txn.Len() > 0 {
				s.conflicts.Inc()
			}
			if !held {
				s.parked[u.Name] = struct{}{}
				s.failed[u.Req] = struct{}{}
			}
		}
	}
	return progressed
}

// commit applies one staged decision through the API server, emitting the
// same span / event / histogram telemetry the legacy loop did, and writes
// the result through into the snapshot.
func (s *Scheduler) commit(st staged, cycleStart time.Duration) {
	if st.dec.Outcome == core.Rejected {
		s.tracer.Record("kubeshare-sched", "reject", st.key, st.dec.Reason, cycleStart)
		s.recorder.Eventf(core.KindSharePod, st.name, obs.EventWarning, "Unschedulable", "%s", st.dec.Reason)
		s.applyRejection(st.name, st.dec.Reason)
		return
	}
	id := s.tracer.Record("kubeshare-sched", "schedule", st.key,
		fmt.Sprintf("gpuid=%s node=%s", st.dec.GPUID, st.dec.NodeName), cycleStart)
	s.schedHist.ObserveDurationExemplar(s.env.Now()-st.created, st.key, id)
	s.applyPlacement(st.name, st.dec)
}

// applyPlacement commits a placement: the GPUID/NodeName assignment through
// the spec, the phase transition through the status subresource, written
// through into the snapshot immediately so back-to-back cycles cannot
// double-book residuals.
func (s *Scheduler) applyPlacement(name string, dec core.Decision) {
	sps := core.SharePods(s.srv)
	if _, err := sps.Mutate(name, func(cur *core.SharePod) error {
		cur.Spec.GPUID = dec.GPUID
		cur.Spec.NodeName = dec.NodeName
		return nil
	}); err != nil {
		if apiserver.IsNotFound(err) {
			return
		}
		panic(fmt.Sprintf("kubeshare-sched: update %s: %v", name, err))
	}
	updated, err := sps.MutateStatus(name, func(cur *core.SharePod) error {
		cur.Status.Phase = core.SharePodScheduled
		cur.Status.ScheduledTime = s.env.Now()
		return nil
	})
	if err != nil {
		if apiserver.IsNotFound(err) {
			return
		}
		panic(fmt.Sprintf("kubeshare-sched: update status %s: %v", name, err))
	}
	s.snap.Placed(updated)
}

// applyRejection marks a sharePod's locality constraints unsatisfiable.
func (s *Scheduler) applyRejection(name, reason string) {
	updated, err := core.SharePods(s.srv).MutateStatus(name, func(cur *core.SharePod) error {
		cur.Status.Phase = core.SharePodRejected
		cur.Status.Message = reason
		cur.Status.FinishTime = s.env.Now()
		return nil
	})
	if err != nil {
		if apiserver.IsNotFound(err) {
			return
		}
		panic(fmt.Sprintf("kubeshare-sched: update status %s: %v", name, err))
	}
	s.apply(store.Event{Type: store.Modified, Object: updated})
}

// unitOf converts a sharePod into its framework scheduling view.
func unitOf(sp *core.SharePod) fwk.Unit {
	return fwk.Unit{
		Name:     sp.Name,
		Created:  sp.CreationTime,
		Req:      core.RequestOf(sp),
		Gang:     sp.Spec.Gang,
		GangSize: sp.Spec.GangSize,
	}
}

// gangOf returns the sharePod's active gang. Gang semantics gate initial
// admission only: a recovered member (Restarts > 0) reschedules solo, since
// its peers already hold their placements.
func gangOf(sp *core.SharePod) string {
	if sp.Status.Restarts > 0 {
		return ""
	}
	return sp.Spec.Gang
}

// newGPUID generates a fresh vGPU identifier — same series as the legacy
// scheduler, so placements and logs stay comparable.
func (s *Scheduler) newGPUID() string {
	s.nextID++
	return fmt.Sprintf("vgpu-%04d", s.nextID)
}
