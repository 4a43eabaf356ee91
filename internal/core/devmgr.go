package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"kubeshare/internal/devlib"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// errVGPULost marks a vGPU whose physical backing disappeared mid-bind
// (holder pod death that recovery could not ride out). Binds seeing it
// requeue the sharePod instead of failing it.
var errVGPULost = errors.New("core: vGPU lost")

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
// ≈15% creation overhead when no vGPU must be created (Fig 10). Binds run
// concurrently, so the overhead stays constant under concurrent requests.
const opLatency = 150 * time.Millisecond

// recoveryTimeout bounds how long a dead vGPU pod's replacement may take to
// come up before the vGPU is written off and its tenants requeued.
const recoveryTimeout = 30 * time.Second

// HolderImage is the image of the native pods DevMgr launches to acquire
// physical GPUs from Kubernetes. Its sole purpose is to hold the GPU and
// report the device UUID from its environment (§4.4).
const HolderImage = "kubeshare/vgpu-holder"

// DevMgr is KubeShare-DevMgr: the custom controller that owns the vGPU
// pool, converts GPUIDs to physical UUIDs, creates the bound pods with
// explicit device binding, and reflects bound-pod status back onto
// sharePods.
type DevMgr struct {
	env *sim.Env
	srv *apiserver.Server
	cfg DevMgrConfig

	// creating single-flights vGPU acquisition per GPUID; the event fires
	// with the UUID (string) or an error.
	creating map[string]*sim.Event
	// uuidReports delivers NVIDIA_VISIBLE_DEVICES from holder pods, keyed
	// by holder pod name.
	uuidReports map[string]*sim.Event
	// binding marks sharePods whose bind workflow is in flight.
	binding map[string]bool
	// tenants caches each vGPU's live tenant set (gpuID → sharePod names),
	// maintained from watch deltas so reconcileVGPU no longer lists every
	// sharePod to decide whether a device went idle.
	tenants map[string]map[string]bool
	// placedGPU remembers each live sharePod's last-seen placement, so a
	// requeue (placement cleared under a live sharePod) releases the old
	// device's tenant entry.
	placedGPU map[string]string
	// holderGen counts holder incarnations per gpuID (0 = original).
	holderGen map[string]int
	// recovering single-flights vGPU recovery per gpuID.
	recovering map[string]bool
	// backends resolves a node's device-library daemon, for suspending and
	// resuming token managers across vGPU pod restarts (see SetBackends).
	backends map[string]*devlib.Backend

	reflectors []*apiserver.Reflector
	procs      []*sim.Proc

	// Telemetry. Recovery counts live on the obs registry (atomics), so
	// Recoveries() is safe to read while the controller runs; the rest
	// no-op when obs is off.
	tracer        *obs.Tracer
	recorder      *obs.Recorder
	vgpuCreates   *obs.Counter
	recoveries    *obs.Counter
	recoveryFails *obs.Counter
	binds         *obs.Counter
	bindHist      *obs.Histogram
}

// NewDevMgr creates KubeShare-DevMgr; Start launches it.
func NewDevMgr(env *sim.Env, srv *apiserver.Server, cfg DevMgrConfig) *DevMgr {
	rt := srv.Obs()
	return &DevMgr{
		env:           env,
		srv:           srv,
		cfg:           cfg,
		creating:      make(map[string]*sim.Event),
		uuidReports:   make(map[string]*sim.Event),
		binding:       make(map[string]bool),
		tenants:       make(map[string]map[string]bool),
		placedGPU:     make(map[string]string),
		holderGen:     make(map[string]int),
		recovering:    make(map[string]bool),
		backends:      make(map[string]*devlib.Backend),
		tracer:        rt.Tracer(),
		recorder:      rt.EventSource("kubeshare-devmgr"),
		vgpuCreates:   rt.Counter("kubeshare_devmgr_vgpu_creates_total"),
		recoveries:    rt.Counter("kubeshare_devmgr_vgpu_recoveries_total"),
		recoveryFails: rt.Counter("kubeshare_devmgr_vgpu_recovery_fails_total"),
		binds:         rt.Counter("kubeshare_devmgr_binds_total"),
		bindHist:      rt.Histogram("kubeshare_devmgr_bind_seconds"),
	}
}

// SetBackends wires the per-node device-library daemons in, so recovery can
// suspend and resume the token manager of a dying vGPU pod. Call before
// Start.
func (m *DevMgr) SetBackends(backends map[string]*devlib.Backend) {
	m.backends = backends
}

// Recoveries returns (attempted, failed) vGPU recovery counts. Both are
// obs registry counters, safe to read concurrently with the controller
// loops; they report zero when the cluster runs without observability.
func (m *DevMgr) Recoveries() (int64, int64) {
	return m.recoveries.Value(), m.recoveryFails.Value()
}

// TenantView returns a copy of the tenant cache (gpuID → sorted sharePod
// names). Chaos soaks check it against the live placed sharePods: a
// divergence means a leaked or orphaned tenant entry.
func (m *DevMgr) TenantView() map[string][]string {
	out := make(map[string][]string, len(m.tenants))
	for gpuID, set := range m.tenants {
		out[gpuID] = slices.Sorted(maps.Keys(set))
	}
	return out
}

// ReportUUID is called by the holder image entrypoint to deliver the device
// UUID it found in its environment — the stand-in for DevMgr reading the
// environment variable inside the launched container.
func (m *DevMgr) ReportUUID(holderPod, uuid string) {
	m.uuidReport(holderPod).Trigger(uuid)
}

func (m *DevMgr) uuidReport(holderPod string) *sim.Event {
	ev, ok := m.uuidReports[holderPod]
	if !ok {
		ev = sim.NewEvent(m.env)
		m.uuidReports[holderPod] = ev
	}
	return ev
}

// failUUIDWaiters forgets a holder's report channel, first waking anyone
// still waiting on it with errVGPULost. A holder that died before reporting
// will never trigger its event; silently deleting the map entry would strand
// the waiting bind forever (holding its single-flight flags), which is
// exactly the wedge the chaos soak caught. Trigger is idempotent, so holders
// that already reported are unaffected.
func (m *DevMgr) failUUIDWaiters(holderPod string) {
	if ev, ok := m.uuidReports[holderPod]; ok {
		ev.Trigger(fmt.Errorf("%w: holder %s died before reporting", errVGPULost, holderPod))
		delete(m.uuidReports, holderPod)
	}
}

// Start launches the sharePod, bound-pod and holder-pod watch loops. All
// three ride reflectors, so dropped watches resume (or relist) without
// losing deltas.
func (m *DevMgr) Start() {
	spR := m.srv.NewNamedReflector("kubeshare-devmgr", KindSharePod, apiserver.WatchOptions{Replay: true})
	m.reflectors = append(m.reflectors, spR)
	m.procs = append(m.procs, m.env.Go("kubeshare-devmgr", func(p *sim.Proc) {
		for {
			ev, ok := spR.Get(p)
			if !ok {
				return
			}
			sp := ev.Object.(*SharePod)
			switch ev.Type {
			case store.Deleted:
				m.onSharePodGone(sp)
				delete(m.placedGPU, sp.Name)
			default:
				// Maintain the tenant cache, including the requeue edge: a
				// live sharePod whose placement was cleared (or moved) must
				// release its old device.
				cur := ""
				if sp.Placed() && !sp.Terminated() {
					cur = sp.Spec.GPUID
				}
				if old, ok := m.placedGPU[sp.Name]; ok && old != cur {
					m.removeTenant(old, sp.Name)
					m.reconcileVGPU(old)
				}
				if cur != "" {
					m.placedGPU[sp.Name] = cur
					m.addTenant(cur, sp.Name)
				} else {
					delete(m.placedGPU, sp.Name)
					if sp.Placed() && sp.Terminated() {
						m.removeTenant(sp.Spec.GPUID, sp.Name)
					}
				}
				if sp.Placed() && !sp.Terminated() && sp.Status.BoundPod == "" && !m.binding[sp.Name] {
					m.binding[sp.Name] = true
					name := sp.Name
					m.env.Go("devmgr-bind-"+name, func(bp *sim.Proc) {
						defer delete(m.binding, name)
						// Loop until the placement is stable: a sharePod
						// requeued and re-placed while a bind was in flight
						// would otherwise be swallowed — the watch event
						// arrives while the binding flag is still set, and
						// the stale bind exits on its placement-changed
						// guard with nobody left to bind the new placement.
						for {
							cur, err := SharePods(m.srv).Get(name)
							if err != nil || cur.Terminated() || !cur.Placed() || cur.Status.BoundPod != "" {
								return
							}
							m.bind(bp, cur)
						}
					})
				}
			}
		}
	}))
	// Only bound pods (stamped with LabelSharePod) matter here; the filter
	// runs server-side, so holder pods and unrelated cluster pods never
	// reach this loop.
	podR := m.srv.NewNamedReflector("kubeshare-devmgr", "Pod", apiserver.WatchOptions{
		Selector: labels.HasKey(LabelSharePod),
		Replay:   true,
	})
	m.reflectors = append(m.reflectors, podR)
	m.procs = append(m.procs, m.env.Go("kubeshare-devmgr-pods", func(p *sim.Proc) {
		for {
			ev, ok := podR.Get(p)
			if !ok {
				return
			}
			if ev.Type == store.Deleted {
				continue
			}
			pod := ev.Object.(*api.Pod)
			m.reflectPodStatus(pod.Labels[LabelSharePod], pod)
		}
	}))
	// Holder-pod stream: a holder that dies (killed container, evicted node)
	// while its vGPU still exists triggers recovery.
	holderR := m.srv.NewNamedReflector("kubeshare-devmgr", "Pod", apiserver.WatchOptions{
		Selector: labels.HasKey(LabelVGPUHolder),
		Replay:   true,
	})
	m.reflectors = append(m.reflectors, holderR)
	m.procs = append(m.procs, m.env.Go("kubeshare-devmgr-holders", func(p *sim.Proc) {
		for {
			ev, ok := holderR.Get(p)
			if !ok {
				return
			}
			pod := ev.Object.(*api.Pod)
			if ev.Type == store.Deleted || pod.Terminated() {
				m.onHolderDown(pod)
			}
		}
	}))
}

// addTenant records a live placed sharePod on its vGPU (idempotent).
func (m *DevMgr) addTenant(gpuID, spName string) {
	set, ok := m.tenants[gpuID]
	if !ok {
		set = make(map[string]bool)
		m.tenants[gpuID] = set
	}
	set[spName] = true
}

// removeTenant drops a sharePod from its vGPU's tenant set (idempotent).
func (m *DevMgr) removeTenant(gpuID, spName string) {
	if set, ok := m.tenants[gpuID]; ok {
		delete(set, spName)
		if len(set) == 0 {
			delete(m.tenants, gpuID)
		}
	}
}

// Stop terminates the controller loops.
func (m *DevMgr) Stop() {
	for _, p := range m.procs {
		p.Kill(nil)
	}
	for _, r := range m.reflectors {
		r.Stop()
	}
}

// onHolderDown reacts to a dead holder pod. Expected teardowns (the vGPU
// object is gone, or the pod is a stale incarnation) are ignored; anything
// else starts a recovery proc for the vGPU.
func (m *DevMgr) onHolderDown(pod *api.Pod) {
	gpuID := pod.Labels[LabelVGPUHolder]
	if gpuID == "" || m.recovering[gpuID] {
		return
	}
	v, err := VGPUs(m.srv).Get(gpuID)
	if err != nil || v.Status.HolderPod != pod.Name {
		return
	}
	m.recovering[gpuID] = true
	// Single-flight with binds: ensureVGPU waits on this event instead of
	// racing a fresh acquisition against the recovery.
	ev := sim.NewEvent(m.env)
	m.creating[gpuID] = ev
	deadHolder := pod.Name
	m.procs = append(m.procs, m.env.Go("devmgr-recover-"+gpuID, func(p *sim.Proc) {
		defer func() {
			delete(m.recovering, gpuID)
			if m.creating[gpuID] == ev {
				delete(m.creating, gpuID)
			}
		}()
		m.recoverVGPU(p, gpuID, deadHolder, ev)
	}))
}

// recoverVGPU replaces a dead vGPU pod: the device's sharing strategy is
// suspended (queued admits fail over to the frontends' reconnect loops),
// a fresh holder incarnation is launched, and on success the strategy
// resumes — surviving tenants re-register and continue. If the replacement
// reports a different physical device, or never comes up, the vGPU is
// written off and its tenants requeued.
func (m *DevMgr) recoverVGPU(p *sim.Proc, gpuID, deadHolder string, done *sim.Event) {
	m.recoveries.Inc()
	span := m.tracer.Start("devmgr", "recover", KindVGPU+"/"+gpuID)
	v, err := VGPUs(m.srv).Get(gpuID)
	if err != nil {
		span.EndNote("failed: vGPU gone")
		done.Trigger(fmt.Errorf("%w: %s", errVGPULost, gpuID))
		return
	}
	oldUUID := v.Status.UUID
	var strat sharing.Strategy
	if b := m.backends[v.Spec.NodeName]; b != nil && oldUUID != "" {
		// Suspend whatever strategy serves the device. When no client has
		// reached it yet, the node default is instantiated suspended, so a
		// tenant whose container starts mid-recovery waits for the
		// replacement instead of running against the dead holder.
		strat = b.StrategyOf(oldUUID)
		if strat == nil {
			strat, _ = b.StrategyFor(oldUUID, "") // nil only on a misconfigured node default
		}
		if strat != nil {
			strat.Suspend()
			m.recorder.Eventf(KindVGPU, gpuID, obs.EventNormal, "TokenManagerSuspended",
				"token manager %s suspended for recovery", oldUUID)
		}
	}
	m.failUUIDWaiters(deadHolder)
	m.holderGen[gpuID]++
	replacement := holderPod(gpuID, v.Spec.NodeName, m.holderGen[gpuID])
	holder := replacement.Name
	_, _ = VGPUs(m.srv).MutateStatus(gpuID, func(cur *VGPU) error {
		cur.Status.Phase = VGPUCreating
		cur.Status.HolderPod = holder
		cur.Status.UUID = "" // stale binds must wait for the new backing
		return nil
	})
	// Remove the corpse (KillPod leaves a Failed pod object; eviction has
	// already deleted it) so the node's GPU is free for the replacement.
	if err := apiserver.Pods(m.srv).Delete(deadHolder); err != nil && !apiserver.IsNotFound(err) {
		panic(fmt.Sprintf("kubeshare-devmgr: delete dead holder: %v", err))
	}
	uuid := ""
	if _, err := apiserver.Pods(m.srv).Create(replacement); err == nil || apiserver.IsExists(err) {
		if val, ok := p.WaitTimeout(m.uuidReport(holder), recoveryTimeout); ok {
			uuid, _ = val.(string)
		}
	}
	if strat != nil {
		strat.Resume()
		m.recorder.Eventf(KindVGPU, gpuID, obs.EventNormal, "TokenManagerResumed",
			"token manager %s resumed", oldUUID)
	}
	if uuid == "" {
		// Node dead or no GPU free: write the vGPU off. Tenants requeue and
		// Algorithm 1 re-places them wherever capacity lives now.
		m.recoveryFails.Inc()
		m.recorder.Eventf(KindVGPU, gpuID, obs.EventWarning, "RecoveryFailed",
			"no replacement holder came up; vGPU written off")
		span.EndNote("failed: written off")
		m.dropVGPU(gpuID, holder)
		done.Trigger(fmt.Errorf("%w: %s", errVGPULost, gpuID))
		return
	}
	_, _ = VGPUs(m.srv).MutateStatus(gpuID, func(cur *VGPU) error {
		cur.Status.Phase = VGPUActive
		cur.Status.UUID = uuid
		return nil
	})
	if uuid != oldUUID && oldUUID != "" {
		// The replacement pinned a different physical device; the tenants'
		// containers are wired to the old UUID. Requeue them — their
		// replacements bind against the new backing.
		m.evictTenants(gpuID)
	}
	m.recorder.Eventf(KindVGPU, gpuID, obs.EventNormal, "Recovered",
		"holder %s up on %s", holder, uuid)
	span.EndNote("uuid=%s", uuid)
	done.Trigger(uuid)
}

// dropVGPU writes a vGPU off: tenants are requeued (via bound-pod deletion
// when one exists, directly otherwise), then the holder and the VGPU object
// are removed.
func (m *DevMgr) dropVGPU(gpuID, holder string) {
	m.evictTenants(gpuID)
	if err := apiserver.Pods(m.srv).Delete(holder); err != nil && !apiserver.IsNotFound(err) {
		panic(fmt.Sprintf("kubeshare-devmgr: delete holder: %v", err))
	}
	if err := VGPUs(m.srv).Delete(gpuID); err != nil && !apiserver.IsNotFound(err) {
		panic(fmt.Sprintf("kubeshare-devmgr: delete vGPU: %v", err))
	}
	m.failUUIDWaiters(holder)
}

// evictTenants requeues every live tenant of a vGPU. Tenants with a bound
// pod are requeued by deleting it (the scheduler's pod-deletion hook);
// tenants still binding are requeued directly.
func (m *DevMgr) evictTenants(gpuID string) {
	sps := SharePods(m.srv)
	for _, name := range slices.Sorted(maps.Keys(m.tenants[gpuID])) {
		sp, err := sps.Get(name)
		if err != nil || sp.Terminated() {
			continue
		}
		if sp.Status.BoundPod != "" {
			if err := apiserver.Pods(m.srv).Delete(sp.Status.BoundPod); err != nil && !apiserver.IsNotFound(err) {
				panic(fmt.Sprintf("kubeshare-devmgr: evict tenant %s: %v", name, err))
			}
		} else {
			RequeueSharePod(m.srv, name)
		}
	}
}

// bind realizes one scheduled sharePod: ensure its vGPU exists, then create
// the bound pod with the explicit device binding.
func (m *DevMgr) bind(p *sim.Proc, sp *SharePod) {
	span := m.tracer.Start("devmgr", "bind", KindSharePod+"/"+sp.Name)
	bindStart := m.env.Now()
	uuid, err := m.ensureVGPU(p, sp.Spec.GPUID, sp.Spec.NodeName)
	if err != nil {
		span.EndNote("failed: %v", err)
		if errors.Is(err, errVGPULost) {
			// The backing died mid-bind; requeue rather than fail — the
			// request is fine, the device was not. Guard against the
			// sharePod having already been re-placed elsewhere while the
			// doomed acquisition ran: only the still-current placement is
			// cleared.
			if cur, gerr := SharePods(m.srv).Get(sp.Name); gerr == nil && cur.Spec.GPUID == sp.Spec.GPUID {
				RequeueSharePod(m.srv, sp.Name)
			}
		} else {
			m.failSharePod(sp.Name, fmt.Sprintf("vGPU %s: %v", sp.Spec.GPUID, err))
		}
		return
	}
	m.tracer.Mark("devmgr", "holder-ready", KindSharePod+"/"+sp.Name,
		"gpuid="+sp.Spec.GPUID+" uuid="+uuid)
	p.Sleep(opLatency)
	// The sharePod may have been deleted, requeued elsewhere, or already
	// bound while the vGPU was created.
	cur, err := SharePods(m.srv).Get(sp.Name)
	if err != nil || cur.Terminated() {
		span.EndNote("abandoned: sharePod gone")
		m.reconcileVGPU(sp.Spec.GPUID)
		return
	}
	if cur.Spec.GPUID != sp.Spec.GPUID || cur.Status.BoundPod != "" {
		span.EndNote("abandoned: stale placement")
		return // a newer watch event drives the current placement
	}
	spec := sp.Spec.Pod.Clone()
	spec.NodeName = sp.Spec.NodeName // explicit binding: no kube-scheduler involvement
	for i := range spec.Containers {
		c := &spec.Containers[i]
		if c.Env == nil {
			c.Env = map[string]string{}
		}
		// The paper's DevMgr converts GPUID to UUID and sets
		// NVIDIA_VISIBLE_DEVICES itself (§4.4); admission guarantees the
		// spec requests no device plugin resource, so the physical GPU
		// stays pinned solely by the holder pod.
		c.Env["NVIDIA_VISIBLE_DEVICES"] = uuid
	}
	ann := map[string]string{
		AnnGPURequest: formatFloat(sp.Spec.GPURequest),
		AnnGPULimit:   formatFloat(sp.Spec.Share().EffectiveLimit()),
		AnnGPUMem:     formatFloat(sp.Spec.GPUMem),
		AnnGPUID:      sp.Spec.GPUID,
	}
	// The byte-quantity and mode annotations are stamped only when used, so
	// legacy bound pods keep their exact annotation set.
	if sp.Spec.GPUMemBytes > 0 {
		ann[AnnGPUMemBytes] = strconv.FormatInt(sp.Spec.GPUMemBytes, 10)
	}
	if sp.Spec.SharingMode != "" {
		ann[AnnSharingMode] = sp.Spec.SharingMode
	}
	pod := &api.Pod{
		ObjectMeta: api.ObjectMeta{
			Name:        boundPodName(sp.Name, cur.Status.Restarts),
			Labels:      map[string]string{LabelSharePod: sp.Name},
			Annotations: ann,
			OwnerName:   KindSharePod + "/" + sp.Name,
		},
		Spec: spec,
	}
	if _, err := apiserver.Pods(m.srv).Create(pod); err != nil && !apiserver.IsExists(err) {
		span.EndNote("failed: %v", err)
		m.failSharePod(sp.Name, fmt.Sprintf("create bound pod: %v", err))
		return
	}
	m.updateSharePod(sp.Name, func(cur *SharePod) {
		cur.Status.BoundPod = pod.Name
		cur.Status.UUID = uuid
	})
	m.markVGPU(sp.Spec.GPUID, VGPUActive)
	m.binds.Inc()
	m.bindHist.ObserveDurationExemplar(m.env.Now()-bindStart, KindSharePod+"/"+sp.Name, span.ID())
	span.EndNote("pod=%s uuid=%s", pod.Name, uuid)
}

// ensureVGPU returns the physical UUID behind gpuID, acquiring a GPU from
// Kubernetes (via a holder pod) when the vGPU does not exist yet. Creation
// is single-flighted per GPUID.
func (m *DevMgr) ensureVGPU(p *sim.Proc, gpuID, node string) (string, error) {
	if v, err := VGPUs(m.srv).Get(gpuID); err == nil && v.Status.UUID != "" {
		return v.Status.UUID, nil
	}
	if ev, inFlight := m.creating[gpuID]; inFlight {
		switch v := p.Wait(ev).(type) {
		case string:
			return v, nil
		case error:
			return "", v
		}
		return "", fmt.Errorf("vGPU creation produced no UUID")
	}
	ev := sim.NewEvent(m.env)
	m.creating[gpuID] = ev
	// Delete only our own event: onHolderDown may have replaced it with a
	// recovery's single-flight event while createVGPU was blocked, and
	// deleting that would let a fresh acquisition race the recovery.
	defer func() {
		if m.creating[gpuID] == ev {
			delete(m.creating, gpuID)
		}
	}()
	uuid, err := m.createVGPU(p, gpuID, node)
	if err != nil {
		ev.Trigger(err)
		return "", err
	}
	ev.Trigger(uuid)
	return uuid, nil
}

// createVGPU converts a free physical GPU into a pool vGPU: launch a native
// holder pod requesting one GPU on the target node, wait for it to run, and
// read the UUID it reports from its environment.
func (m *DevMgr) createVGPU(p *sim.Proc, gpuID, node string) (string, error) {
	pod := holderPod(gpuID, node, 0)
	holder := pod.Name
	vgpu := &VGPU{
		ObjectMeta: api.ObjectMeta{Name: gpuID},
		Spec:       VGPUSpec{GPUID: gpuID, NodeName: node},
		Status:     VGPUStatus{Phase: VGPUCreating, HolderPod: holder},
	}
	if _, err := VGPUs(m.srv).Create(vgpu); err != nil && !apiserver.IsExists(err) {
		return "", err
	}
	if _, err := apiserver.Pods(m.srv).Create(pod); err != nil && !apiserver.IsExists(err) {
		return "", err
	}
	v := p.Wait(m.uuidReport(holder))
	if err, ok := v.(error); ok {
		// The holder died before reporting (killed, evicted, node crash) and
		// recovery or teardown wrote it off under us.
		return "", err
	}
	uuid, ok := v.(string)
	if !ok || uuid == "" {
		return "", fmt.Errorf("holder pod %s reported no device", holder)
	}
	_, err := VGPUs(m.srv).MutateStatus(gpuID, func(cur *VGPU) error {
		cur.Status.Phase = VGPUActive
		cur.Status.UUID = uuid
		return nil
	})
	if err != nil {
		return "", err
	}
	m.vgpuCreates.Inc()
	m.recorder.Eventf(KindVGPU, gpuID, obs.EventNormal, "Created",
		"holder %s pinned %s on %s", holder, uuid, node)
	return uuid, nil
}

// holderPod is incarnation gen of the native pod that pins gpuID's physical
// GPU: one whole device on node, through the device plugin.
func holderPod(gpuID, node string, gen int) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{
			Name:      holderPodName(gpuID, gen),
			Labels:    map[string]string{LabelVGPUHolder: gpuID},
			OwnerName: KindVGPU + "/" + gpuID,
		},
		Spec: api.PodSpec{
			NodeName: node,
			Containers: []api.Container{{
				Name:     "holder",
				Image:    HolderImage,
				Requests: api.ResourceList{api.ResourceGPU: 1},
			}},
		},
	}
}

// reflectPodStatus mirrors bound-pod phase changes onto the sharePod and
// reconciles the vGPU when a tenant terminates.
func (m *DevMgr) reflectPodStatus(spName string, pod *api.Pod) {
	var gpuID string
	switch pod.Status.Phase {
	case api.PodRunning:
		m.updateSharePod(spName, func(cur *SharePod) {
			if cur.Status.Phase == SharePodScheduled {
				cur.Status.Phase = SharePodRunning
				cur.Status.RunningTime = m.env.Now()
			}
			gpuID = cur.Spec.GPUID
		})
	case api.PodSucceeded, api.PodFailed:
		m.updateSharePod(spName, func(cur *SharePod) {
			if !cur.Terminated() {
				if pod.Status.Phase == api.PodSucceeded {
					cur.Status.Phase = SharePodSucceeded
				} else {
					cur.Status.Phase = SharePodFailed
					cur.Status.Message = pod.Status.Message
				}
				cur.Status.FinishTime = m.env.Now()
			}
			gpuID = cur.Spec.GPUID
		})
		if gpuID != "" {
			// The sharePod watch event for the terminal status has not been
			// processed yet; update the tenant cache here so the reconcile
			// below sees the device without this tenant.
			m.removeTenant(gpuID, spName)
			m.reconcileVGPU(gpuID)
		}
	}
}

// onSharePodGone handles sharePod deletion: remove its bound pod and
// reconcile the vGPU.
func (m *DevMgr) onSharePodGone(sp *SharePod) {
	if sp.Status.BoundPod != "" {
		if err := apiserver.Pods(m.srv).Delete(sp.Status.BoundPod); err != nil && !apiserver.IsNotFound(err) {
			panic(fmt.Sprintf("kubeshare-devmgr: delete bound pod: %v", err))
		}
	}
	if sp.Spec.GPUID != "" {
		m.removeTenant(sp.Spec.GPUID, sp.Name)
		m.reconcileVGPU(sp.Spec.GPUID)
	}
}

// reconcileVGPU applies the idle policy: when a vGPU has no live tenants it
// is either deleted (on-demand, releasing the GPU to Kubernetes) or marked
// idle (reservation).
func (m *DevMgr) reconcileVGPU(gpuID string) {
	if len(m.tenants[gpuID]) > 0 {
		return // still has tenants (cache maintained from watch deltas)
	}
	if _, inFlight := m.creating[gpuID]; inFlight {
		return // acquisition still running; bind will re-reconcile
	}
	v, err := VGPUs(m.srv).Get(gpuID)
	if err != nil {
		return
	}
	if m.cfg.Policy == Reservation {
		m.markVGPU(gpuID, VGPUIdle)
		return
	}
	if err := apiserver.Pods(m.srv).Delete(v.Status.HolderPod); err != nil && !apiserver.IsNotFound(err) {
		panic(fmt.Sprintf("kubeshare-devmgr: delete holder: %v", err))
	}
	if err := VGPUs(m.srv).Delete(gpuID); err != nil && !apiserver.IsNotFound(err) {
		panic(fmt.Sprintf("kubeshare-devmgr: delete vGPU: %v", err))
	}
	delete(m.uuidReports, v.Status.HolderPod)
}

func (m *DevMgr) markVGPU(gpuID string, phase VGPUPhase) {
	_, err := VGPUs(m.srv).MutateStatus(gpuID, func(cur *VGPU) error {
		cur.Status.Phase = phase
		return nil
	})
	if err != nil && !apiserver.IsNotFound(err) {
		panic(fmt.Sprintf("kubeshare-devmgr: mark vGPU %s: %v", gpuID, err))
	}
}

// updateSharePod writes sharePod status through the status subresource —
// DevMgr never touches specs, so it cannot race with KubeShare-Sched's
// placement writes.
func (m *DevMgr) updateSharePod(name string, mutate func(*SharePod)) {
	_, err := SharePods(m.srv).MutateStatus(name, func(cur *SharePod) error {
		mutate(cur)
		return nil
	})
	if err != nil && !apiserver.IsNotFound(err) {
		panic(fmt.Sprintf("kubeshare-devmgr: update sharePod %s: %v", name, err))
	}
}

func (m *DevMgr) failSharePod(name, msg string) {
	m.updateSharePod(name, func(cur *SharePod) {
		if !cur.Terminated() {
			cur.Status.Phase = SharePodFailed
			cur.Status.Message = msg
			cur.Status.FinishTime = m.env.Now()
		}
	})
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
