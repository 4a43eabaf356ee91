// Package schedfw is the scheduling framework: the batched KubeShare-Sched
// driver, plus the extender baseline (extender.go), which runs a cycle loop
// of its own. Each cycle drains the pending queue into a batch, decides
// every unit by Algorithm 1 (core.Decide) against a transactional view of
// the incremental snapshot, resolves intra-batch conflicts through the
// reservation journal, and commits the staged placements in bulk through
// the API server.
//
// The default configuration — batch size 1 — decides one sharePod per cycle
// exactly as the paper's scheduler does; batching and gang scheduling are
// opt-in extensions on the same cycle.
package schedfw

import (
	"fmt"
	"strconv"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Framework-specific metric names (the shared scheduling families live in
// package core).
const (
	// MetricSchedConflicts counts intra-batch reservation conflicts: a unit
	// whose decision found no capacity in a cycle where an earlier unit of
	// the same batch had already reserved some. Units passed over without a
	// decision (MetricSchedSkipped) are not counted.
	MetricSchedConflicts = "kubeshare_sched_batch_conflicts_total"
	// MetricSchedUnschedulable is the number of sharePods parked right now:
	// pending, known to find no capacity, and not re-decided until a release
	// moves the snapshot's generation.
	MetricSchedUnschedulable = "kubeshare_sched_unschedulable_sharepods"
	// MetricSchedSkipped counts units a cycle passed over without deciding
	// them — parked since an earlier cycle, or carrying a request identical
	// to one that already found no capacity in this cycle.
	MetricSchedSkipped = "kubeshare_sched_skipped_total"
	// MetricSchedGangAdmissions counts gangs admitted all-or-nothing.
	MetricSchedGangAdmissions = "kubeshare_sched_gang_admissions_total"
	// MetricSchedGangTimeouts counts gangs whose capacity hold expired.
	MetricSchedGangTimeouts = "kubeshare_sched_gang_timeouts_total"
	// metricPhasePrefix prefixes the per-phase run counters
	// (kubeshare_sched_phase_<phase>_runs_total). They count decisions
	// only: a skipped unit runs no phase.
	metricPhasePrefix = "kubeshare_sched_phase_"
)

// PhaseMetric returns the run-counter name for an Algorithm 1 step (a fwk
// phase).
func PhaseMetric(phase string) string { return metricPhasePrefix + phase + "_runs_total" }

// Defaults for the framework knobs.
const (
	// DefaultBatchSize stages one placement per cycle: the paper's
	// scheduler, deciding one sharePod at a time.
	DefaultBatchSize = 1
	// DefaultGangTimeout bounds how long an incomplete gang may hold
	// reserved capacity against younger work.
	DefaultGangTimeout = 30 * time.Second
)

type options struct {
	batchSize   int
	gangTimeout time.Duration
}

// Option configures the framework driver.
type Option func(*options)

// WithBatchSize sets how many placements one cycle may stage. n <= 1 stages
// one per cycle; larger batches amortize the cycle latency across n
// decisions.
func WithBatchSize(n int) Option {
	return func(o *options) { o.batchSize = n }
}

// WithGangTimeout bounds an incomplete gang's capacity hold.
func WithGangTimeout(d time.Duration) Option {
	return func(o *options) { o.gangTimeout = d }
}

// Scheduler is the framework driver. Around Algorithm 1 it owns the watch
// streams and incremental snapshot, the cycle clock, the batch transaction,
// gang holds, and the bulk commit path to the API server.
type Scheduler struct {
	env *sim.Env
	srv *apiserver.Server

	batchSize   int
	gangTimeout time.Duration

	snap   *core.Snapshot
	wake   waker
	nextID int
	proc   *sim.Proc

	reflectors []*apiserver.Reflector
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
	// is parked without a decision. Reset every cycle and after every gang
	// attempt (a rollback may hand capacity back to the transaction).
	failed map[core.Request]struct{}
	// txn and out are the cycle transaction and its staged decisions,
	// reused across cycles: runCycle points txn at each cycle's borrowed
	// pool and hands both back empty.
	txn *fwk.Txn
	out []staged
	// newID is newGPUID, bound once: a method value made per cycle would
	// allocate its closure every cycle.
	newID func() string

	tracer       *obs.Tracer
	recorder     *obs.Recorder
	decisions    *obs.Counter
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
// runs Algorithm 1 on one sharePod per cycle.
func New(env *sim.Env, srv *apiserver.Server, opts ...Option) *Scheduler {
	o := options{batchSize: DefaultBatchSize, gangTimeout: DefaultGangTimeout}
	for _, opt := range opts {
		opt(&o)
	}
	if o.batchSize < 1 {
		o.batchSize = 1
	}
	rt := srv.Obs()
	s := &Scheduler{
		env:          env,
		srv:          srv,
		batchSize:    o.batchSize,
		gangTimeout:  o.gangTimeout,
		snap:         core.NewSnapshot(),
		wake:         newWaker(env),
		gangs:        make(map[string]*gangState),
		parked:       make(map[string]struct{}),
		failed:       make(map[core.Request]struct{}),
		txn:          fwk.NewTxn(nil),
		tracer:       rt.Tracer(),
		recorder:     rt.EventSource("kubeshare-sched"),
		decisions:    rt.Counter(core.MetricSchedDecisions),
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
	s.newID = s.newGPUID
	return s
}

// decide runs Algorithm 1 for r against the cycle transaction, committing
// an Assigned or NewDevice decision onto it, and counts the decision and
// the steps it ran: every decision starts with the affinity check, only
// one without an affinity label walks the pool (filter and score), the
// new-vGPU fallback runs when no device was chosen, and a placement is
// reserved.
func (s *Scheduler) decide(r core.Request, txn *fwk.Txn) core.Decision {
	dec := txn.Schedule(r)
	s.decisions.Inc()
	s.phaseRuns[fwk.PhasePreFilter].Inc()
	if r.Aff == "" {
		s.phaseRuns[fwk.PhaseFilter].Inc()
		s.phaseRuns[fwk.PhaseScore].Inc()
	}
	if dec.Outcome == core.NewDevice || dec.Outcome == core.NoCapacity {
		s.phaseRuns[fwk.PhaseAlloc].Inc()
	}
	if dec.Outcome == core.Assigned || dec.Outcome == core.NewDevice {
		s.phaseRuns[fwk.PhaseReserve].Inc()
	}
	return dec
}

// Stats implements core.Sched.
func (s *Scheduler) Stats() core.SchedStats { return core.ReadSchedStats(s.srv.Obs()) }

// VerifySnapshot implements core.Sched: the snapshot's persistent pool — the
// one every cycle borrows — must be exactly the pool a full relist would
// build, with its residual order intact, and every parked unit must still be
// pending (a sharePod that left while parked leaves no entry behind).
func (s *Scheduler) VerifySnapshot() error {
	for name := range s.parked {
		if s.snap.PendingEntry(name) == nil {
			return fmt.Errorf("parked sharePod %s is not pending", name)
		}
	}
	pool := s.snap.Pool(nil)
	if err := pool.VerifyIndex(); err != nil {
		return err
	}
	return core.DiffPools(pool, core.BuildPool(s.srv))
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
		s.reflectors = append(s.reflectors, s.srv.Inform("kubeshare-sched", "kubeshare-sched-watch-"+kind, kind, apiserver.WatchOptions{Replay: true}, func(_ *sim.Proc, ev store.Event) {
			s.apply(ev)
			s.wake.kick()
		}))
	}
}

// Stop terminates the scheduler: its cycle loop, its watches (and their
// loops) and its gang timers.
func (s *Scheduler) Stop() {
	if s.proc != nil {
		s.proc.Kill(nil)
	}
	for _, r := range s.reflectors {
		r.Stop()
	}
	for _, p := range s.timerProcs {
		if !p.Finished() {
			p.Kill(nil)
		}
	}
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

// waker coalesces a cycle loop's wakeups: a burst of watch deliveries in
// one sim instant triggers one cycle, not one per delivery.
type waker struct{ q *sim.Queue[struct{}] }

func newWaker(env *sim.Env) waker { return waker{sim.NewQueue[struct{}](env)} }

// kick asks for a cycle; a kick already queued covers it.
func (w waker) kick() {
	if w.q.Len() == 0 {
		w.q.Put(struct{}{})
	}
}

// wait blocks p until the first kick, yields so every same-instant watch
// proc lands its delta, then drains the redundant kicks those deliveries
// queued. It reports false once the queue is closed.
func (w waker) wait(p *sim.Proc) bool {
	if _, ok := w.q.Get(p); !ok {
		return false
	}
	p.Yield()
	for {
		if _, ok := w.q.TryGet(); !ok {
			return true
		}
	}
}

// loop runs the cycles each coalesced wakeup asks for.
func (s *Scheduler) loop(p *sim.Proc) {
	for s.wake.wait(p) {
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

// staged is one decision awaiting the cycle's bulk commit.
type staged struct {
	name    string
	created time.Duration
	dec     core.Decision
}

// runCycle runs one scheduling cycle: take the pending set oldest first,
// decide units against the cycle transaction until the batch is full, then
// commit the staged decisions in bulk. It reports whether any unit
// progressed (was staged); all-NoCapacity means wait for a cluster change.
//
// A pending unit is in one of three states. Active units are decided.
// Parked units — solo units that found NoCapacity and have seen no release
// since — are passed over, so a cycle costs what its placeable units cost
// rather than what the backlog weighs. Held gangs are re-attempted every
// cycle (see scheduleGang). Parking changes no cycle, sleep or placement: a
// parked unit is one whose decision is known to end in NoCapacity.
func (s *Scheduler) runCycle(p *sim.Proc) bool {
	pending := s.snap.Pending()
	s.depth.Set(int64(len(pending)))
	if len(pending) == 0 {
		s.parkedNow.Set(int64(len(s.parked)))
		return false
	}
	cycleStart := s.env.Now()
	p.Sleep(core.CycleLatency)
	// The watch procs drained any deltas during the sleep; the snapshot is
	// current as of now. The batch stages on the snapshot's own pool.
	txn := s.txn
	txn.Reset(s.snap.Pool(s.newID))
	if gen := s.snap.ReleaseGen(); gen != s.parkedGen {
		// Capacity was released since the parked verdicts: everyone is active.
		clear(s.parked)
		s.parkedGen = gen
	}
	clear(s.failed)

	out := s.out[:0]
	progressed := s.stage(pending, txn, &out)
	s.parkedNow.Set(int64(len(s.parked)))

	s.recordBatch(len(pending), len(out), txn.Len(), cycleStart)
	// Hand the pool back as borrowed — gang holds included — before the first
	// commit; each placement returns through snap.Placed as it lands.
	txn.Rollback(0)
	for _, st := range out {
		s.commit(st, cycleStart)
	}
	clear(out)
	s.out = out[:0]
	if progressed == 0 {
		s.noCapacity.Inc()
		return false
	}
	return true
}

// resolve returns a pending unit's current entry in the snapshot: nil for a
// parked unit and for one the watch deltas since the cycle took its pending
// list have placed, terminated or deleted.
func (s *Scheduler) resolve(name string) *core.SharePod {
	if _, ok := s.parked[name]; ok {
		s.skipped.Inc()
		return nil
	}
	return s.snap.PendingEntry(name)
}

// stage is the cycle's staging loop: walk the pending units in age order
// until the batch is full, admitting gangs whole and deciding solo units one
// at a time against the live transaction. Each unit is resolved as the loop
// reaches it, so it is decided as the snapshot holds it then.
//
// A solo unit whose decision ends in NoCapacity is parked and its request
// recorded in the cycle memo; a later unit with an identical request
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
		req := core.RequestOf(sp)
		if _, ok := s.failed[req]; ok {
			s.parked[sp.Name] = struct{}{}
			s.skipped.Inc()
			continue
		}
		dec := s.decide(req, txn)
		switch dec.Outcome {
		case core.Assigned, core.NewDevice, core.Rejected:
			*out = append(*out, staged{name: sp.Name, created: sp.CreationTime, dec: dec})
			progressed++
		default: // NoCapacity: the unit stays pending.
			if txn.Len() > 0 {
				s.conflicts.Inc()
			}
			if !held {
				s.parked[sp.Name] = struct{}{}
				s.failed[req] = struct{}{}
			}
		}
	}
	return progressed
}

// recordBatch records a batched cycle's span: the pending units it took
// name its key, and its note counts the staged decisions and the journal.
func (s *Scheduler) recordBatch(pending, staged, journal int, cycleStart time.Duration) {
	if s.batchSize <= 1 {
		return
	}
	s.tracer.Record("kubeshare-sched", "batch", "cycle/"+strconv.Itoa(pending), cycleStart,
		"staged=", strconv.Itoa(staged), " journal=", strconv.Itoa(journal))
}

// commit applies one staged decision through the API server, records its
// span, event and latency observation, and writes the result through into
// the snapshot.
func (s *Scheduler) commit(st staged, cycleStart time.Duration) {
	key := core.KindSharePod + "/" + st.name
	if st.dec.Outcome == core.Rejected {
		s.tracer.Record("kubeshare-sched", "reject", key, cycleStart, st.dec.Reason)
		s.recorder.Event(core.KindSharePod, st.name, obs.EventWarning, "Unschedulable", st.dec.Reason)
		s.applyRejection(st.name, st.dec.Reason)
		return
	}
	s.tracer.Record("kubeshare-sched", "schedule", key, cycleStart,
		"gpuid=", st.dec.GPUID, " node=", st.dec.NodeName)
	s.schedHist.Observe((s.env.Now() - st.created).Seconds())
	s.applyPlacement(st.name, st.dec)
}

// applyPlacement commits a placement: the GPUID/NodeName assignment and the
// phase transition in one Bind, written through into the snapshot
// immediately so back-to-back cycles cannot double-book residuals.
func (s *Scheduler) applyPlacement(name string, dec core.Decision) {
	updated, err := core.SharePods(s.srv).Bind(name, func(cur *core.SharePod) error {
		cur.Spec.GPUID = dec.GPUID
		cur.Spec.NodeName = dec.NodeName
		cur.Status.Phase = core.SharePodScheduled
		cur.Status.ScheduledTime = s.env.Now()
		return nil
	})
	if err != nil {
		return // not written through: the sharePod stays pending for a later cycle
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
		return // the sharePod stays pending for a later cycle
	}
	s.apply(store.Event{Type: store.Modified, Object: updated})
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

// newGPUID generates a fresh vGPU identifier: vgpu-0001, vgpu-0002, … in
// the order the scheduler opens devices.
func (s *Scheduler) newGPUID() string {
	s.nextID++
	var b [20]byte
	n := strconv.AppendInt(b[:0], int64(s.nextID), 10)
	// vgpu-%04d: the number zero-padded to four digits.
	return "vgpu-" + "000"[min(len(n)-1, 3):] + string(n)
}
