// Package kubelet implements the node agent: it registers its node with the
// API server, watches for pods bound to the node, performs the device
// plugin allocation phase, starts containers through the runtime, and
// reports pod status. Deleting a pod object stops its containers and frees
// its devices.
package kubelet

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/deviceplugin"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Config parameterizes a kubelet.
type Config struct {
	NodeName string
	// Labels are stamped onto the Node object.
	Labels map[string]string
	// ImagePullLatency models image pull time per pod (cached layers make
	// this mostly constant in steady state).
	ImagePullLatency time.Duration
	// SyncLatency models the kubelet's reaction time to a newly bound pod.
	SyncLatency time.Duration
}

// Default latencies, tuned so that whole-pod creation lands in the paper's
// "less than a few seconds" regime (Figure 10 dashed line).
const (
	DefaultImagePullLatency = 250 * time.Millisecond
	DefaultSyncLatency      = 50 * time.Millisecond
)

// heartbeatInterval is the node-lease renewal period; the lifecycle
// controller declares the node NotReady when renewals stop.
const heartbeatInterval = time.Second

// Kubelet is one node's agent.
type Kubelet struct {
	env       *sim.Env
	srv       *apiserver.Server
	cfg       Config
	devmgr    *deviceplugin.Manager
	runtime   *runtime.Runtime
	workers   map[string]*podWorker // pod name → worker
	reflector *apiserver.Reflector
	proc      *sim.Proc
	hbProc    *sim.Proc
	crashed   bool

	// Telemetry (no-op handles when the cluster runs without obs).
	tracer     *obs.Tracer
	recorder   *obs.Recorder
	syncs      *obs.Counter
	allocFails *obs.Counter
	syncHist   *obs.Histogram
}

// podWorker tracks one pod's containers on the node.
type podWorker struct {
	pod      *api.Pod
	handles  []*runtime.Handle
	proc     *sim.Proc
	stopping bool
	released bool
}

// New creates a kubelet. Call Start to register the node and begin syncing.
func New(env *sim.Env, srv *apiserver.Server, devmgr *deviceplugin.Manager, rt *runtime.Runtime, cfg Config) *Kubelet {
	if cfg.ImagePullLatency == 0 {
		cfg.ImagePullLatency = DefaultImagePullLatency
	}
	if cfg.SyncLatency == 0 {
		cfg.SyncLatency = DefaultSyncLatency
	}
	o := srv.Obs()
	return &Kubelet{
		env:        env,
		srv:        srv,
		cfg:        cfg,
		devmgr:     devmgr,
		runtime:    rt,
		workers:    make(map[string]*podWorker),
		tracer:     o.Tracer(),
		recorder:   o.EventSource("kubelet/" + cfg.NodeName),
		syncs:      o.CounterVec("kubeshare_kubelet_pod_syncs_total", "node").With(cfg.NodeName),
		allocFails: o.CounterVec("kubeshare_kubelet_allocation_failures_total", "node").With(cfg.NodeName),
		syncHist:   o.HistogramVec("kubeshare_kubelet_pod_sync_seconds", "node").With(cfg.NodeName),
	}
}

// DeviceManager returns the kubelet's device plugin manager.
func (k *Kubelet) DeviceManager() *deviceplugin.Manager { return k.devmgr }

// Start registers the Node object (capacity merged with plugin devices) and
// launches the sync loop.
func (k *Kubelet) Start() error {
	// The node's CPU/memory capacity; registered device plugins contribute
	// the extended resources.
	capacity := api.ResourceList{api.ResourceCPU: 36000, api.ResourceMemory: 244 << 30}
	capacity.Add(k.devmgr.Capacity())
	node := &api.Node{
		ObjectMeta: api.ObjectMeta{Name: k.cfg.NodeName, Labels: k.cfg.Labels},
		Status: api.NodeStatus{
			Capacity:      capacity,
			Allocatable:   capacity.Clone(),
			Ready:         true,
			HeartbeatTime: k.env.Now(),
		},
	}
	if _, err := apiserver.Nodes(k.srv).Create(node); err != nil {
		return fmt.Errorf("kubelet %s: register node: %w", k.cfg.NodeName, err)
	}
	k.startLoops()
	return nil
}

// startLoops launches the watch-driven sync loop and the heartbeat loop. The
// watch is scoped to this node at the store, as a real kubelet's is by
// spec.nodeName: a pod reaches it once bound here (as Modified, when the
// scheduler binds it after creation).
func (k *Kubelet) startLoops() {
	k.reflector = k.srv.NewNamedReflector("kubelet", "Pod", apiserver.WatchOptions{Replay: true, Node: k.cfg.NodeName})
	k.proc = k.env.Go("kubelet-"+k.cfg.NodeName, k.syncLoop)
	k.hbProc = k.env.GoDaemon("kubelet-hb-"+k.cfg.NodeName, k.heartbeatLoop)
}

// heartbeatLoop renews the node lease. A heartbeat also re-asserts Ready,
// so a node the lifecycle controller declared dead recovers as soon as its
// kubelet resumes renewing.
func (k *Kubelet) heartbeatLoop(p *sim.Proc) {
	for {
		p.Sleep(heartbeatInterval)
		_, err := apiserver.Nodes(k.srv).MutateStatus(k.cfg.NodeName, func(n *api.Node) error {
			n.Status.HeartbeatTime = k.env.Now()
			n.Status.Ready = true
			return nil
		})
		if err != nil && !apiserver.IsNotFound(err) {
			panic(fmt.Sprintf("kubelet %s: heartbeat: %v", k.cfg.NodeName, err))
		}
	}
}

// Stop terminates the sync loop and kills every container on the node, in
// pod-name order: each kill takes the next sequence id at this instant, so
// the order of the walk is the order the containers die in.
func (k *Kubelet) Stop() {
	if k.proc != nil {
		k.proc.Kill(nil)
	}
	if k.hbProc != nil {
		k.hbProc.Kill(nil)
	}
	if k.reflector != nil {
		k.reflector.Stop()
	}
	for _, name := range slices.Sorted(maps.Keys(k.workers)) {
		k.teardown(name, k.workers[name])
	}
}

// Crash models an abrupt node failure: every loop and container dies on the
// spot and no status is reported — the control plane must notice via the
// stale heartbeat. Device-plugin state is local, so shares held by the dead
// containers are released (a rebooted node starts with free devices).
func (k *Kubelet) Crash() {
	if k.crashed {
		return
	}
	k.crashed = true
	k.Stop()
	k.proc, k.hbProc, k.reflector = nil, nil, nil
	k.workers = make(map[string]*podWorker)
}

// Restart brings a crashed node back. Containers did not survive the
// reboot, so any pod object still claiming to run here is deleted (the
// controllers that own those pods reschedule or replace them), then the
// loops start fresh and heartbeats resume.
func (k *Kubelet) Restart() error {
	if !k.crashed {
		return fmt.Errorf("kubelet %s: restart without crash", k.cfg.NodeName)
	}
	k.crashed = false
	pods := apiserver.Pods(k.srv)
	for _, pod := range pods.List() {
		if pod.Spec.NodeName == k.cfg.NodeName && !pod.Terminated() {
			if err := pods.Delete(pod.Name); err != nil && !apiserver.IsNotFound(err) {
				return fmt.Errorf("kubelet %s: restart cleanup: %w", k.cfg.NodeName, err)
			}
		}
	}
	_, err := apiserver.Nodes(k.srv).MutateStatus(k.cfg.NodeName, func(n *api.Node) error {
		n.Status.Ready = true
		n.Status.HeartbeatTime = k.env.Now()
		return nil
	})
	if err != nil {
		return fmt.Errorf("kubelet %s: restart: %w", k.cfg.NodeName, err)
	}
	k.startLoops()
	return nil
}

// Crashed reports whether the node is currently down.
func (k *Kubelet) Crashed() bool { return k.crashed }

// KillPod kills a pod's containers in place (a daemon dying, not an API
// deletion): the worker observes the exits and reports the pod Failed, so
// watching controllers detect the death. Reports whether the pod was
// running here.
func (k *Kubelet) KillPod(name string) bool {
	w, ok := k.workers[name]
	if !ok {
		return false
	}
	if len(w.handles) > 0 {
		for _, h := range w.handles {
			k.runtime.Stop(h)
		}
		return true
	}
	// Still in the admission phase: fail it directly.
	if w.proc != nil && !w.proc.Finished() {
		w.proc.Kill(nil)
	}
	k.release(w)
	k.failPod(name, "killed")
	return true
}

func (k *Kubelet) syncLoop(p *sim.Proc) {
	for {
		ev, ok := k.reflector.Get(p)
		if !ok {
			return
		}
		pod, ok := ev.Object.(*api.Pod)
		if !ok {
			continue
		}
		switch ev.Type {
		case store.Added, store.Modified:
			if pod.Terminated() {
				continue
			}
			if _, managed := k.workers[pod.Name]; managed {
				continue
			}
			// The event carries a snapshot; re-read the live object so a
			// stale "Running" event cannot re-admit a pod that has already
			// reached a terminal phase (duplicate container starts).
			if cur, err := apiserver.Pods(k.srv).Get(pod.Name); err != nil || cur.Terminated() || cur.UID != pod.UID {
				continue
			}
			k.admit(pod)
		case store.Deleted:
			if w, managed := k.workers[pod.Name]; managed {
				k.teardown(pod.Name, w)
			}
		}
	}
}

// admit runs the device allocation phase and starts the pod's containers in
// a dedicated worker proc.
func (k *Kubelet) admit(pod *api.Pod) {
	w := &podWorker{pod: pod}
	k.workers[pod.Name] = w
	w.proc = k.env.Go("pod-"+pod.Name, func(p *sim.Proc) {
		// The sync span covers bind-observed to all-containers-running; it
		// lands on the pod's causal chain (the owning sharePod's for
		// KubeShare-managed pods).
		span := k.tracer.Start("kubelet", "pod-sync", api.TraceKey(pod))
		syncStart := k.env.Now()
		p.Sleep(k.cfg.SyncLatency)
		// Device plugin allocation phase: extended resources only; the
		// kubelet picks instances, the plugin returns container settings.
		extraEnv := map[string]string{}
		for _, c := range pod.Spec.Containers {
			for res, n := range c.Requests {
				if res == api.ResourceCPU || res == api.ResourceMemory || n == 0 {
					continue
				}
				resp, err := k.devmgr.Allocate(pod.UID, res, n)
				if err != nil {
					k.allocFails.Inc()
					k.recorder.Eventf("Pod", pod.Name, obs.EventWarning, "FailedAllocation",
						"device allocation of %s: %v", res, err)
					k.failPod(pod.Name, fmt.Sprintf("device allocation: %v", err))
					k.release(w)
					span.EndNote("failed: device allocation")
					return
				}
				for key, v := range resp.Env {
					extraEnv[key] = v
				}
			}
		}
		p.Sleep(k.cfg.ImagePullLatency)
		for _, c := range pod.Spec.Containers {
			h, err := k.runtime.Start(pod, c, extraEnv)
			if err != nil {
				k.recorder.Eventf("Pod", pod.Name, obs.EventWarning, "FailedStart",
					"start container %s: %v", c.Name, err)
				k.failPod(pod.Name, fmt.Sprintf("start container %s: %v", c.Name, err))
				for _, started := range w.handles {
					k.runtime.Stop(started)
				}
				k.release(w)
				span.EndNote("failed: container start")
				return
			}
			w.handles = append(w.handles, h)
		}
		for _, h := range w.handles {
			p.Wait(h.Started())
		}
		k.setPhase(pod.Name, api.PodRunning, "", func(pp *api.Pod) {
			pp.Status.StartTime = k.env.Now()
		})
		k.syncs.Inc()
		k.syncHist.ObserveDurationExemplar(k.env.Now()-syncStart, api.TraceKey(pod), span.ID())
		k.recorder.Eventf("Pod", pod.Name, obs.EventNormal, "Started",
			"pod running on %s", k.cfg.NodeName)
		span.EndNote("pod=%s", pod.Name)
		// Wait for all containers; first error decides the pod outcome.
		// The worker entry stays in k.workers until the pod object is
		// deleted, so stale watch snapshots can never re-admit the pod.
		var firstErr error
		for _, h := range w.handles {
			if err, _ := p.Wait(h.Done()).(error); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		k.release(w)
		if w.stopping {
			return // pod object already deleted; no status to report
		}
		if firstErr != nil {
			k.failPod(pod.Name, firstErr.Error())
		} else {
			k.setPhase(pod.Name, api.PodSucceeded, "", func(pp *api.Pod) {
				pp.Status.FinishTime = k.env.Now()
			})
		}
	})
}

// teardown stops a pod's containers and releases its devices. It is invoked
// on pod deletion or kubelet shutdown; the worker proc observes stopping
// and skips status reporting. Idempotent: a teardown racing a second
// invocation (pod delete during shutdown) neither double-stops nor
// double-frees.
func (k *Kubelet) teardown(name string, w *podWorker) {
	if !w.stopping {
		w.stopping = true
		for _, h := range w.handles {
			k.runtime.Stop(h)
		}
		if len(w.handles) == 0 && w.proc != nil && !w.proc.Finished() {
			// Worker still in the admission phase: kill it directly.
			w.proc.Kill(nil)
		}
	}
	k.release(w)
	delete(k.workers, name)
}

// release frees the pod's device shares exactly once, no matter how many
// paths (worker exit, teardown, crash, kill) reach it.
func (k *Kubelet) release(w *podWorker) {
	if w.released {
		return
	}
	w.released = true
	k.devmgr.Free(w.pod.UID)
}

func (k *Kubelet) setPhase(name string, phase api.PodPhase, msg string, extra func(*api.Pod)) {
	_, err := apiserver.Pods(k.srv).MutateStatus(name, func(p *api.Pod) error {
		p.Status.Phase = phase
		p.Status.Message = msg
		if extra != nil {
			extra(p)
		}
		return nil
	})
	if err != nil && !apiserver.IsNotFound(err) {
		panic(fmt.Sprintf("kubelet %s: update %s: %v", k.cfg.NodeName, name, err))
	}
}

func (k *Kubelet) failPod(name, msg string) {
	k.setPhase(name, api.PodFailed, msg, func(pp *api.Pod) {
		pp.Status.FinishTime = k.env.Now()
	})
}
