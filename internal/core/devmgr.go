package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"kubeshare/internal/devlib"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/controller"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// errUnchanged stops a write that would change nothing; errStale one whose
// object has moved on from what the writer read in its watch cache.
var errUnchanged, errStale = errors.New("core: unchanged"), errors.New("core: object moved on")

// PoolPolicy controls what happens to a vGPU when its last tenant leaves
// (§4.4): OnDemand releases the physical GPU back to Kubernetes
// immediately; Reservation keeps the vGPU idle in the pool, eliminating
// acquisition latency for the next request at the cost of holding the GPU.
type PoolPolicy int

// Pool policies.
const (
	OnDemand PoolPolicy = iota
	Reservation
)

// DevMgrConfig parameterizes KubeShare-DevMgr.
type DevMgrConfig struct {
	// Policy is the idle-vGPU policy (paper default: on-demand).
	Policy PoolPolicy
}

// opLatency models one DevMgr operation: the vGPU info query and bound-pod
// construction. Together with the scheduling cycle it produces the paper's
// ≈15% creation overhead when no vGPU must be created (Fig 10). Binds wait
// it out on timers side by side, so the overhead stays constant under
// concurrent requests.
const opLatency = 150 * time.Millisecond

// recoveryTimeout bounds how long a dead holder's replacement may take to
// report before the vGPU is written off and its tenants requeued.
const recoveryTimeout = 30 * time.Second

// HolderImage is the image of the native pods DevMgr launches to acquire
// physical GPUs from Kubernetes. Its sole purpose is to hold the GPU and
// report the device UUID from its environment (§4.4).
const HolderImage = "kubeshare/vgpu-holder"

// DevMgr is KubeShare-DevMgr: it owns the vGPU pool, converts GPUIDs to
// physical UUIDs, creates the bound pods with explicit device binding, and
// reflects bound-pod status back onto sharePods — two level-triggered
// reconcilers on controller.Runner, one per GPUID (reconcileVGPU) and one
// per sharePod (reconcileSharePod). Both compare before they write and read
// what DevMgr watches from its watches' caches; the watch loops Sync them
// (a VGPU delivered with a UUID syncs its tenants), and an API error
// requeues the key under the Runner's backoff.
type DevMgr struct {
	env *sim.Env
	srv *apiserver.Server
	cfg DevMgrConfig

	vgpus, sharePods          *controller.Runner
	spR, podR, holderR, vgpuR *apiserver.Reflector // sharePods, bound pods, holder pods, VGPUs

	devices  map[string]*vgpuState      // what no object records about each vGPU
	placed   map[string]string          // live placed sharePod → GPUID, to see it leave
	binding  map[string]bindOp          // sharePod → bind, until the watch shows its pod
	backends map[string]*devlib.Backend // node → device-library daemon

	// Telemetry (no-op handles when obs is off). A requeue is reported as a
	// scheduling event: on the scheduler's counter and event source.
	tracer        *obs.Tracer
	recorder      *obs.Recorder
	schedEvents   *obs.Recorder
	requeues      *obs.Counter
	vgpuCreates   *obs.Counter
	recoveries    *obs.Counter
	recoveryFails *obs.Counter
	binds         *obs.Counter
	bindHist      *obs.Histogram
}

// vgpuState is DevMgr's memory of one vGPU. tenants are its live placed
// sharePods in arrival order, the order their binds proceed in.
type vgpuState struct {
	tenants      []string
	holder, uuid string // the last holder pod that reported, and its UUID
	gen          int    // holder incarnations (0 = original)
	rec          *recovery
	known        bool // the VGPU object was created or reconciled since this state began
}

// recovery is a dead holder's replacement in progress.
type recovery struct {
	holder   string // the replacement
	oldUUID  string
	strat    sharing.Strategy // suspended until the recovery ends
	span     obs.SpanRef
	deadline time.Duration
	timer    sim.Timer
}

// bindOp is a bind in progress: the vGPU's first UUID and whether it was
// Active then, when the bound pod is due (0 before) and, once made, its name.
type bindOp struct {
	gpuID, uuid, pod string
	span             obs.SpanRef
	start, due       time.Duration
	active           bool
}

// NewDevMgr creates KubeShare-DevMgr over the per-node device-library
// daemons, keyed by node name and filled before Start, which launches it.
func NewDevMgr(env *sim.Env, srv *apiserver.Server, cfg DevMgrConfig, backends map[string]*devlib.Backend) *DevMgr {
	rt := srv.Obs()
	m := &DevMgr{
		env:           env,
		srv:           srv,
		cfg:           cfg,
		devices:       make(map[string]*vgpuState),
		placed:        make(map[string]string),
		binding:       make(map[string]bindOp),
		backends:      backends,
		tracer:        rt.Tracer(),
		recorder:      rt.EventSource("kubeshare-devmgr"),
		schedEvents:   rt.EventSource("kubeshare-sched"),
		requeues:      rt.Counter(MetricSchedRequeues),
		vgpuCreates:   rt.Counter("kubeshare_devmgr_vgpu_creates_total"),
		recoveries:    rt.Counter("kubeshare_devmgr_vgpu_recoveries_total"),
		recoveryFails: rt.Counter("kubeshare_devmgr_vgpu_recovery_fails_total"),
		binds:         rt.Counter("kubeshare_devmgr_binds_total"),
		bindHist:      rt.Histogram("kubeshare_devmgr_bind_seconds"),
	}
	m.vgpus = controller.NewRunner(env, "kubeshare-devmgr-vgpu", 0, m.reconcileVGPU)
	m.sharePods = controller.NewRunner(env, "kubeshare-devmgr-sharepod", 0, m.reconcileSharePod)
	return m
}

// Recoveries returns (attempted, failed) vGPU recovery counts: obs registry
// counters, safe to read while the controller runs, zero without obs.
func (m *DevMgr) Recoveries() (int64, int64) {
	return m.recoveries.Value(), m.recoveryFails.Value()
}

// TenantView returns a copy of the tenant lists (gpuID → sorted sharePod
// names). Chaos soaks check it against the live placed sharePods: a
// divergence means a leaked or orphaned tenant entry.
func (m *DevMgr) TenantView() map[string][]string {
	out := make(map[string][]string)
	for gpuID, d := range m.devices {
		if len(d.tenants) > 0 {
			out[gpuID] = slices.Sorted(slices.Values(d.tenants))
		}
	}
	return out
}

// ReportUUID is called by the holder image entrypoint with the device UUID
// from its environment — the stand-in for DevMgr reading the variable in the
// container — and is taken up in a step of its own, after the container's.
func (m *DevMgr) ReportUUID(holder *api.Pod, uuid string) {
	gpuID := holder.Labels[LabelVGPUHolder]
	d := m.state(gpuID)
	d.holder, d.uuid = holder.Name, uuid
	m.env.After(0, func() { m.vgpus.Sync(nil, gpuID) })
}

func (m *DevMgr) state(gpuID string) *vgpuState {
	d := m.devices[gpuID]
	if d == nil {
		d = &vgpuState{}
		m.devices[gpuID] = d
	}
	return d
}

// Start opens the sharePod, bound-pod, holder-pod and VGPU watches
// (reflectors: dropped watches resume or relist) and launches the
// reconcilers.
func (m *DevMgr) Start() {
	const consumer = "kubeshare-devmgr"
	m.spR = m.srv.Inform(consumer, consumer, KindSharePod, apiserver.WatchOptions{Replay: true}, m.onSharePod)
	// Only bound pods reach this loop (the filter runs server-side). A
	// running or finished one has a phase to mirror; a deleted one may leave
	// its sharePod to requeue. A finished or deleted one leaves its node's
	// container list. At a relist, so does every filed pod it did not find:
	// the diff has no event for a pod this loop never saw.
	bound := apiserver.WatchOptions{Label: LabelSharePod, Replay: true}
	m.podR = m.srv.Inform(consumer, consumer+"-pods", "Pod", bound, func(p *sim.Proc, ev store.Event) {
		if pod := ev.Object.(*api.Pod); ev.Type == store.Deleted || pod.Terminated() {
			m.unfile(pod.Spec.NodeName, pod.Name)
			m.sharePods.Sync(p, pod.Labels[LabelSharePod])
		} else if pod.Status.Phase == api.PodRunning {
			m.sharePods.Sync(p, pod.Labels[LabelSharePod])
		}
	})
	m.podR.OnRelist(func(listed func(string) bool) {
		for _, b := range m.backends {
			for _, name := range b.ContainerList() {
				if !listed(name) {
					b.Unfile(name)
				}
			}
		}
	})
	// A holder that dies (killed container, evicted node) is replaced.
	holders := apiserver.WatchOptions{Label: LabelVGPUHolder, Replay: true}
	m.holderR = m.srv.Inform(consumer, consumer+"-holders", "Pod", holders, func(p *sim.Proc, ev store.Event) {
		if pod := ev.Object.(*api.Pod); ev.Type == store.Deleted || pod.Terminated() {
			m.vgpus.Sync(p, pod.Labels[LabelVGPUHolder])
		}
	})
	// A vGPU that has a UUID lets its tenants' binds proceed. A torn log
	// tail can restore a VGPU object DevMgr deleted, or one without the
	// UUID its holder reported. Either reconciles like any other: dropped
	// with no tenants, its holder replaced or its UUID rewritten with some.
	m.vgpuR = m.srv.Inform(consumer, consumer+"-vgpus", KindVGPU, apiserver.WatchOptions{Replay: true}, func(p *sim.Proc, ev store.Event) {
		v, live := ev.Object.(*VGPU), ev.Type != store.Deleted
		if live && m.stale(v) {
			m.vgpus.Sync(p, v.Name)
		}
		if d := m.devices[v.Name]; live && d != nil && v.Status.UUID != "" {
			for _, name := range d.tenants { // in arrival order
				m.sharePods.Sync(p, name)
			}
		}
	})
	m.vgpus.Start()
	m.sharePods.Start()
}

// stale reports whether v is a VGPU object DevMgr would not have left as it
// is: one it has not reconciled since it last forgot the vGPU, or one that
// lacks the UUID the holder it names reported.
func (m *DevMgr) stale(v *VGPU) bool {
	d := m.devices[v.Name]
	return d == nil || !d.known || d.holder == v.Status.HolderPod && d.uuid != v.Status.UUID
}

// onSharePod keeps the tenant lists in step with a sharePod event, syncs a
// vGPU the sharePod left without tenants, then syncs the sharePod.
func (m *DevMgr) onSharePod(p *sim.Proc, ev store.Event) {
	sp := ev.Object.(*SharePod)
	gpuID := ""
	if ev.Type != store.Deleted && sp.Placed() && !sp.Terminated() {
		gpuID = sp.Spec.GPUID
	}
	if old := m.placed[sp.Name]; old != gpuID {
		if gpuID != "" {
			m.placed[sp.Name] = gpuID
			d := m.state(gpuID)
			d.tenants = append(d.tenants, sp.Name)
		} else {
			delete(m.placed, sp.Name)
		}
		if d := m.devices[old]; d != nil {
			if i := slices.Index(d.tenants, sp.Name); i >= 0 {
				d.tenants = slices.Delete(d.tenants, i, i+1)
			}
			if len(d.tenants) == 0 {
				m.vgpus.Sync(p, old)
			}
		}
	}
	m.sharePods.Sync(p, sp.Name)
}

// reconcileVGPU makes one vGPU match its tenants: while it has any, the VGPU
// object and a live holder pod exist and carry the UUID the holder reported,
// a dead holder being replaced; with none the idle policy applies.
func (m *DevMgr) reconcileVGPU(p *sim.Proc, gpuID string) error {
	d := m.devices[gpuID]
	live := d != nil && len(d.tenants) > 0
	// From the server: the VGPU watch may not yet have delivered the object acquire created.
	v, err := VGPUs(m.srv).Get(gpuID)
	switch {
	case apiserver.IsNotFound(err) && live:
		return m.acquire(gpuID, d)
	case apiserver.IsNotFound(err):
		delete(m.devices, gpuID)
		return nil
	case err != nil:
		return err
	case d == nil:
		d = m.state(gpuID)
	}
	d.known = true
	if !live && m.cfg.Policy == OnDemand { // release the GPU to Kubernetes
		return m.drop(gpuID, v.Status.HolderPod, d, "abandoned: no tenants")
	}
	phase := VGPUActive
	if !live {
		phase = VGPUIdle
	}
	if d.rec != nil {
		return m.recover(gpuID, v, d, phase)
	}
	if m.holderDead(v.Status.HolderPod) {
		return m.replaceHolder(gpuID, v, d)
	}
	if d.holder == v.Status.HolderPod && d.uuid != v.Status.UUID {
		if err := m.writeVGPU(gpuID, func(st *VGPUStatus) { st.Phase, st.UUID = phase, d.uuid }); err != nil {
			return err
		}
		m.vgpuCreates.Inc()
		m.recorder.Event(KindVGPU, gpuID, obs.EventNormal, "Created",
			"holder ", d.holder, " pinned ", d.uuid, " on ", v.Spec.NodeName)
		return nil
	}
	if !live && v.Status.Phase == VGPUActive {
		return m.writeVGPU(gpuID, func(st *VGPUStatus) { st.Phase = VGPUIdle })
	}
	return nil
}

// acquire converts a free physical GPU into a pool vGPU: the VGPU object and
// a native holder pod requesting one whole device on the tenants' node.
func (m *DevMgr) acquire(gpuID string, d *vgpuState) error {
	obj, ok := m.spR.Cached(d.tenants[0])
	if !ok {
		return fmt.Errorf("core: vGPU %s: tenant %s not in the sharePod watch", gpuID, d.tenants[0])
	}
	node := obj.(*SharePod).Spec.NodeName
	d.holder, d.uuid, d.gen = "", "", 0
	pod := holderPod(gpuID, node, 0)
	vgpu := &VGPU{
		ObjectMeta: api.ObjectMeta{Name: gpuID},
		Spec:       VGPUSpec{GPUID: gpuID, NodeName: node},
		Status:     VGPUStatus{Phase: VGPUCreating, HolderPod: pod.Name},
	}
	if _, err := VGPUs(m.srv).Create(vgpu); err != nil && !apiserver.IsExists(err) {
		return err
	}
	d.known = true
	if _, err := apiserver.Pods(m.srv).Create(pod); err != nil && !apiserver.IsExists(err) {
		return err
	}
	return nil
}

// holderDead reports whether the holder watch last saw the pod gone or ended.
func (m *DevMgr) holderDead(name string) bool {
	obj, ok := m.holderR.Cached(name)
	return !ok || obj.(*api.Pod).Terminated()
}

// replaceHolder starts a dead holder's replacement: the device's strategy
// suspends (queued admits fail over to the frontends' reconnect loops), the
// vGPU points at the next holder incarnation with its UUID cleared so binds
// wait, the corpse goes (KillPod leaves a Failed pod) to free the GPU, and
// tenants still waiting on a holder that never reported are requeued. A
// replacement that fails to launch never reports: the deadline writes it off.
func (m *DevMgr) replaceHolder(gpuID string, v *VGPU, d *vgpuState) error {
	m.recoveries.Inc()
	d.gen++
	rec := &recovery{
		holder:   holderPodName(gpuID, d.gen),
		oldUUID:  v.Status.UUID,
		span:     m.tracer.Start("devmgr", "recover", KindVGPU+"/"+gpuID),
		deadline: m.env.Now() + recoveryTimeout,
		timer:    m.env.After(recoveryTimeout, func() { m.vgpus.Sync(nil, gpuID) }),
	}
	d.rec = rec
	if b := m.backends[v.Spec.NodeName]; b != nil && rec.oldUUID != "" {
		// With no client yet, the node default is instantiated suspended, so
		// a container starting mid-recovery waits for the replacement.
		if rec.strat = b.StrategyOf(rec.oldUUID); rec.strat == nil {
			rec.strat, _ = b.StrategyFor(rec.oldUUID, "") // nil only on a misconfigured node default
		}
		if rec.strat != nil {
			rec.strat.Suspend()
			m.recorder.Event(KindVGPU, gpuID, obs.EventNormal, "TokenManagerSuspended",
				"token manager ", rec.oldUUID, " suspended for recovery")
		}
	}
	if err := m.writeVGPU(gpuID, func(st *VGPUStatus) {
		st.Phase, st.HolderPod, st.UUID = VGPUCreating, rec.holder, ""
	}); err != nil {
		return err
	}
	if err := apiserver.Pods(m.srv).Delete(v.Status.HolderPod); err != nil && !apiserver.IsNotFound(err) {
		return err
	}
	if _, err := apiserver.Pods(m.srv).Create(holderPod(gpuID, v.Spec.NodeName, d.gen)); err != nil && !apiserver.IsExists(err) {
		return err
	}
	if rec.oldUUID == "" {
		return m.evict(d, false)
	}
	return nil
}

// recover ends a holder replacement when the replacement reports — tenants
// wired to another device are requeued — or, at the deadline, writes the
// vGPU off and requeues them all.
func (m *DevMgr) recover(gpuID string, v *VGPU, d *vgpuState, phase VGPUPhase) error {
	rec, uuid := d.rec, ""
	if d.holder == rec.holder {
		uuid = d.uuid
	}
	if uuid == "" && m.env.Now() < rec.deadline {
		return nil
	}
	if uuid == "" {
		// Node dead or no GPU free: tenants requeue and Algorithm 1
		// re-places them wherever capacity lives now.
		if err := m.evict(d, true); err != nil {
			return err
		}
		m.recoveryFails.Inc()
		m.recorder.Event(KindVGPU, gpuID, obs.EventWarning, "RecoveryFailed",
			"no replacement holder came up; vGPU written off")
		return m.drop(gpuID, v.Status.HolderPod, d, "failed: written off")
	}
	m.resume(gpuID, rec)
	if err := m.writeVGPU(gpuID, func(st *VGPUStatus) { st.Phase, st.UUID = phase, uuid }); err != nil {
		return err
	}
	if uuid != rec.oldUUID && rec.oldUUID != "" {
		if err := m.evict(d, true); err != nil {
			return err
		}
	}
	d.rec = nil
	m.recorder.Event(KindVGPU, gpuID, obs.EventNormal, "Recovered", "holder ", rec.holder, " up on ", uuid)
	rec.span.End("uuid=", uuid)
	return nil
}

// resume ends a replacement's strategy suspension and deadline.
func (m *DevMgr) resume(gpuID string, rec *recovery) {
	rec.timer.Stop()
	if rec.strat != nil {
		rec.strat.Resume()
		m.recorder.Event(KindVGPU, gpuID, obs.EventNormal, "TokenManagerResumed",
			"token manager ", rec.oldUUID, " resumed")
		rec.strat = nil
	}
}

// drop deletes a vGPU's holder pod, then the VGPU object, and forgets the
// vGPU, ending a replacement in progress with note.
func (m *DevMgr) drop(gpuID, holder string, d *vgpuState, note string) error {
	if err := apiserver.Pods(m.srv).Delete(holder); err != nil && !apiserver.IsNotFound(err) {
		return err
	}
	if err := VGPUs(m.srv).Delete(gpuID); err != nil && !apiserver.IsNotFound(err) {
		return err
	}
	if d.rec != nil {
		m.resume(gpuID, d.rec)
		d.rec.span.End(note)
	}
	delete(m.devices, gpuID)
	return nil
}

// evict requeues a vGPU's live unbound tenants and, if all, deletes the bound
// pods of the rest (reconcileSharePod requeues them once the deletes land).
func (m *DevMgr) evict(d *vgpuState, all bool) error {
	for _, name := range slices.Sorted(slices.Values(d.tenants)) {
		// From the server: a bound pod written in this instant may not be delivered yet.
		sp, err := SharePods(m.srv).Get(name)
		switch {
		case apiserver.IsNotFound(err) || err == nil && sp.Terminated():
		case err != nil:
			return err
		case sp.Status.BoundPod == "":
			RequeueSharePod(m.srv, name, "")
		case all:
			if err := apiserver.Pods(m.srv).Delete(sp.Status.BoundPod); err != nil && !apiserver.IsNotFound(err) {
				return err
			}
		}
	}
	return nil
}

// reconcileSharePod makes one sharePod's bound pod match it: a placed
// sharePod gets one, whose phase is mirrored back, and is requeued if it
// loses it; a deleted one's goes.
func (m *DevMgr) reconcileSharePod(p *sim.Proc, name string) error {
	obj, ok := m.spR.Cached(name)
	if !ok {
		m.endBind(name, "abandoned: sharePod gone")
		return m.deleteBoundPods(name)
	}
	switch sp := obj.(*SharePod); {
	case sp.Terminated():
		m.endBind(name, "abandoned: sharePod gone")
	case !sp.Placed():
		m.endBind(name, "abandoned: stale placement")
	case sp.Status.BoundPod != "":
		delete(m.binding, name)
		return m.reflect(sp)
	default:
		return m.bind(p, sp)
	}
	return nil
}

// endBind forgets a bind, ending its span with note if it made no pod.
func (m *DevMgr) endBind(name, note string) {
	if b, ok := m.binding[name]; ok {
		if b.pod == "" {
			b.span.End(note)
		}
		delete(m.binding, name)
	}
}

// bind advances a placed, unbound sharePod's bind: it waits for the vGPU to
// have a UUID (syncing the vGPU reconciler when DevMgr knows no vGPU by that
// GPUID), then opLatency, then creates the bound pod.
func (m *DevMgr) bind(p *sim.Proc, sp *SharePod) error {
	b, ok := m.binding[sp.Name]
	if ok && b.pod != "" {
		// Bound, and the watch has not delivered the status write yet —
		// unless a torn log tail lost it, and the bind starts over.
		// From the server: only it can tell the two apart.
		cur, err := SharePods(m.srv).Get(sp.Name)
		if err != nil || cur.Status.BoundPod == b.pod {
			return settled(err)
		}
		ok = false
	} else if ok && b.gpuID != sp.Spec.GPUID {
		b.span.End("abandoned: stale placement")
		ok = false
	}
	if !ok {
		b = bindOp{gpuID: sp.Spec.GPUID, span: m.tracer.Start("devmgr", "bind", KindSharePod+"/"+sp.Name), start: m.env.Now()}
		m.binding[sp.Name] = b
	}
	if b.due == 0 {
		// A known vGPU's cache miss is acquire's create, not yet delivered: reconciling
		// now would read its undelivered holder as dead and requeue the tenant.
		if d := m.devices[b.gpuID]; d == nil || !d.known {
			m.vgpus.Sync(p, b.gpuID)
		}
		obj, ok := m.vgpuR.Cached(b.gpuID)
		if !ok || obj.(*VGPU).Status.UUID == "" {
			return nil // acquiring or recovering: the VGPU watch syncs the tenants on a UUID
		}
		v := obj.(*VGPU)
		b.uuid, b.active, b.due = v.Status.UUID, v.Status.Phase == VGPUActive, m.env.Now()+opLatency
		m.binding[sp.Name] = b
		m.tracer.Mark("devmgr", "holder-ready", KindSharePod+"/"+sp.Name, "gpuid=", b.gpuID, " uuid=", b.uuid)
		name := sp.Name
		m.env.After(opLatency, func() { m.sharePods.Sync(nil, name) })
		return nil
	}
	if m.env.Now() < b.due {
		return nil
	}
	// Due: sp, as last delivered, is live, unbound and on b.gpuID; the
	// status write checks the stored one, which may have moved on since.
	pod := boundPod(sp, b.uuid)
	if backend := m.backends[sp.Spec.NodeName]; backend != nil {
		backend.File(pod.Name, sp.Spec.Share(), sharing.Mode(sp.Spec.SharingMode))
	}
	if _, err := apiserver.Pods(m.srv).Create(pod); err != nil && !apiserver.IsExists(err) {
		m.unfile(sp.Spec.NodeName, pod.Name)
		b.span.End("failed: ", err.Error())
		delete(m.binding, sp.Name)
		return m.writeSharePod(sp.Name, func(st *SharePodStatus) {
			if !terminal(st.Phase) {
				st.Phase, st.Message, st.FinishTime = SharePodFailed, fmt.Sprintf("create bound pod: %v", err), m.env.Now()
			}
		})
	}
	_, err := SharePods(m.srv).MutateStatus(sp.Name, func(cur *SharePod) error {
		if cur.Terminated() || cur.Spec.GPUID != b.gpuID || cur.Status.BoundPod != "" {
			return errStale
		}
		cur.Status.BoundPod, cur.Status.UUID = pod.Name, b.uuid
		return nil
	})
	if errors.Is(err, errStale) || apiserver.IsNotFound(err) {
		m.unfile(sp.Spec.NodeName, pod.Name)
		m.endBind(sp.Name, "abandoned: stale placement")
		return settled(apiserver.Pods(m.srv).Delete(pod.Name))
	}
	if err != nil {
		return err
	}
	if !b.active {
		if err := m.writeVGPU(b.gpuID, func(st *VGPUStatus) { st.Phase = VGPUActive }); err != nil {
			return err
		}
	}
	m.binds.Inc()
	m.bindHist.Observe((m.env.Now() - b.start).Seconds())
	b.span.End("pod=", pod.Name, " uuid=", b.uuid)
	b.pod = pod.Name
	m.binding[sp.Name] = b
	return nil
}

// reflect mirrors the bound pod's phase, as last delivered, onto the
// sharePod: Scheduled becomes Running, any live phase the pod's final one.
// A bound pod the watch has not got is read from the API server, and one
// the server does not have either (node eviction, a lost vGPU, a user
// delete) requeues the live sharePod, so the scheduler re-places it.
func (m *DevMgr) reflect(sp *SharePod) error {
	obj, ok := m.podR.Cached(sp.Status.BoundPod)
	if !ok {
		// From the server: a miss is a pod not yet delivered or one gone.
		_, err := apiserver.Pods(m.srv).Get(sp.Status.BoundPod)
		if apiserver.IsNotFound(err) {
			m.requeue(sp.Name, sp.Status.BoundPod)
			return nil
		}
		return err
	}
	pod, now := obj.(*api.Pod), m.env.Now()
	advance := func(st *SharePodStatus) {
		switch pod.Status.Phase {
		case api.PodRunning:
			if st.Phase == SharePodScheduled {
				st.Phase, st.RunningTime = SharePodRunning, now
			}
		case api.PodSucceeded, api.PodFailed:
			if !terminal(st.Phase) {
				st.Phase, st.FinishTime = SharePodSucceeded, now
				if pod.Status.Phase == api.PodFailed {
					st.Phase, st.Message = SharePodFailed, pod.Status.Message
				}
			}
		}
	}
	if st := sp.Status; advanced(&st, advance) {
		return m.writeSharePod(sp.Name, advance)
	}
	return nil
}

// unfile takes a bound pod off its node's container list.
func (m *DevMgr) unfile(node, pod string) {
	if b := m.backends[node]; b != nil {
		b.Unfile(pod)
	}
}

// requeue sends a sharePod whose bound pod was lost back to the scheduler.
func (m *DevMgr) requeue(name, lost string) {
	updated := RequeueSharePod(m.srv, name, lost)
	if updated == nil {
		return // gone, terminal, or already requeued
	}
	m.requeues.Inc()
	m.tracer.Mark("kubeshare-sched", "requeue", KindSharePod+"/"+updated.Name, "lost pod ", lost)
	m.schedEvents.Event(KindSharePod, name, obs.EventWarning, "Requeued",
		"bound pod ", lost, " lost; rescheduling")
}

// deleteBoundPods removes a deleted sharePod's bound pods, once the API
// server confirms the sharePod is gone rather than not yet delivered.
func (m *DevMgr) deleteBoundPods(name string) error {
	// From the server: a miss is a sharePod not yet delivered or one gone.
	if _, err := SharePods(m.srv).Get(name); !apiserver.IsNotFound(err) {
		return err
	}
	pods := apiserver.Pods(m.srv)
	var bound []string
	pods.Scan(func(pod *api.Pod) bool {
		if pod.Labels[LabelSharePod] == name {
			bound = append(bound, pod.Name)
		}
		return true
	})
	for _, pod := range bound {
		if err := pods.Delete(pod); err != nil && !apiserver.IsNotFound(err) {
			return err
		}
	}
	return nil
}

// writeSharePod applies change to a sharePod's status (DevMgr never writes
// specs, so it cannot race KubeShare-Sched's placements) and writes nothing
// when change left it as it was.
func (m *DevMgr) writeSharePod(name string, change func(*SharePodStatus)) error {
	_, err := SharePods(m.srv).MutateStatus(name, func(cur *SharePod) error {
		if !advanced(&cur.Status, change) {
			return errUnchanged
		}
		return nil
	})
	return settled(err)
}

// writeVGPU is writeSharePod for a vGPU.
func (m *DevMgr) writeVGPU(gpuID string, change func(*VGPUStatus)) error {
	_, err := VGPUs(m.srv).MutateStatus(gpuID, func(cur *VGPU) error {
		if !advanced(&cur.Status, change) {
			return errUnchanged
		}
		return nil
	})
	return settled(err)
}

// advanced applies change to *st and reports whether it changed anything.
func advanced[S comparable](st *S, change func(*S)) bool {
	old := *st
	change(st)
	return *st != old
}

// settled clears the write outcomes that leave nothing to retry.
func settled(err error) error {
	if errors.Is(err, errUnchanged) || apiserver.IsNotFound(err) {
		return nil
	}
	return err
}
