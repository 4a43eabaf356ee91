// Package kubeshare is the public entry point of the KubeShare
// reproduction: a simulated Kubernetes cluster with GPUs managed as
// first-class, shared resources (Yeh, Chen, Chou — HPDC 2020).
//
// A Sim bundles a deterministic discrete-event environment, a miniature
// Kubernetes cluster with simulated GPUs, and an installed KubeShare
// (SharePod/VGPU custom resources, KubeShare-Sched, KubeShare-DevMgr, and
// the per-node vGPU device library). Virtual time only advances inside Run
// and RunFor, so hours of cluster time execute in milliseconds,
// reproducibly.
//
//	s, _ := kubeshare.New(kubeshare.WithNodes(2))
//	s.Go("submit", func(p *sim.Proc) {
//	    s.CreateSharePod(&kubeshare.SharePod{ ... })
//	})
//	s.Run()
package kubeshare

import (
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// Re-exported object types: the public API speaks the same objects the
// controllers do.
type (
	// SharePod is the custom resource requesting a fractional, explicitly
	// bound GPU share.
	SharePod = core.SharePod
	// SharePodSpec is its specification (gpu_request / gpu_limit / gpu_mem,
	// GPUID, locality labels).
	SharePodSpec = core.SharePodSpec
	// SharePodSet is the replica controller over sharePods.
	SharePodSet = core.SharePodSet
	// Pod and PodSpec are the native Kubernetes objects.
	Pod = api.Pod
	// PodSpec is a pod's desired state.
	PodSpec = api.PodSpec
	// Container is one container in a pod spec.
	Container = api.Container
	// ObjectMeta is common object metadata.
	ObjectMeta = api.ObjectMeta
	// ResourceList maps resource names to quantities.
	ResourceList = api.ResourceList
	// Event is one watch notification delivered by Sim.Watch. Its Object is
	// the store's shared read-only snapshot of that revision — every
	// watcher and every Get/List receives the same pointer — so never
	// write to it.
	Event = store.Event
	// WatchOptions narrows a Sim.Watch subscription: exact name, bound
	// node, owner kind, label key, and replay of the current state.
	WatchOptions = store.WatchOptions
)

// Re-exported phases and policies.
const (
	SharePodPending   = core.SharePodPending
	SharePodScheduled = core.SharePodScheduled
	SharePodRunning   = core.SharePodRunning
	SharePodSucceeded = core.SharePodSucceeded
	SharePodFailed    = core.SharePodFailed
	SharePodRejected  = core.SharePodRejected

	// OnDemand and Reservation are the idle-vGPU pool policies (§4.4).
	OnDemand    = core.OnDemand
	Reservation = core.Reservation

	// ResourceGPU is the extended resource name of whole GPUs.
	ResourceGPU = api.ResourceGPU

	// KindSharePod and KindVGPU name the custom resource kinds for
	// Sim.Watch subscriptions.
	KindSharePod = core.KindSharePod
	KindVGPU     = core.KindVGPU
)

// config collects the options.
type config struct {
	nodes       int
	gpusPerNode int
	ks          core.Config
	gangTimeout time.Duration
	extender    bool
	noKubeShare bool
	noObs       bool
}

// Option configures New.
type Option func(*config)

// WithNodes sets the worker node count (default 1).
func WithNodes(n int) Option { return func(c *config) { c.nodes = n } }

// WithGPUsPerNode sets the GPUs per node (default 4, the paper's
// p3.8xlarge).
func WithGPUsPerNode(n int) Option { return func(c *config) { c.gpusPerNode = n } }

// WithPoolPolicy selects the idle-vGPU policy (default OnDemand).
func WithPoolPolicy(p core.PoolPolicy) Option {
	return func(c *config) { c.ks.DevMgr.Policy = p }
}

// WithExtenderScheduler installs the scheduler-extender baseline instead of
// KubeShare-Sched (for comparisons).
func WithExtenderScheduler() Option { return func(c *config) { c.extender = true } }

// WithGangTimeout bounds how long an incomplete gang (SharePodSet with Gang
// enabled) may hold reserved capacity against younger work (default 30s).
// Only KubeShare-Sched holds gangs; the extender baseline ignores it.
func WithGangTimeout(d time.Duration) Option { return func(c *config) { c.gangTimeout = d } }

// WithoutKubeShare builds a vanilla cluster with no KubeShare installed
// (the native baseline).
func WithoutKubeShare() Option { return func(c *config) { c.noKubeShare = true } }

// WithoutObservability disables the telemetry runtime: no metrics, spans or
// events are recorded anywhere in the cluster. Decisions/usage stats that
// ride on the registry read as zero. This is the obs-off arm of the
// instrumentation-overhead benchmark.
func WithoutObservability() Option { return func(c *config) { c.noObs = true } }

// Sim is a ready-to-use simulated cluster with KubeShare installed.
type Sim struct {
	// Env is the discrete-event environment; use Go/Run on the Sim for the
	// common cases.
	Env *sim.Env
	// Cluster is the underlying miniature Kubernetes cluster.
	Cluster *kube.Cluster
	// KS is the installed KubeShare (nil with WithoutKubeShare).
	KS *core.KubeShare
}

// New builds a cluster, registers the workload images, and installs
// KubeShare (unless configured otherwise).
func New(opts ...Option) (*Sim, error) {
	cfg := config{nodes: 1, gpusPerNode: 4, gangTimeout: schedfw.DefaultGangTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	env := sim.NewEnv()
	kc := kube.DefaultConfig(cfg.nodes, cfg.gpusPerNode)
	kc.DisableObs = cfg.noObs
	cluster, err := kube.NewCluster(env, kc)
	if err != nil {
		return nil, err
	}
	workload.RegisterImages(cluster)
	s := &Sim{Env: env, Cluster: cluster}
	switch {
	case cfg.noKubeShare:
	case cfg.extender:
		ks, _, err := schedfw.InstallExtender(cluster, cfg.ks)
		if err != nil {
			return nil, err
		}
		s.KS = ks
	default:
		ks, err := schedfw.Install(cluster, cfg.ks, schedfw.WithGangTimeout(cfg.gangTimeout))
		if err != nil {
			return nil, err
		}
		s.KS = ks
	}
	return s, nil
}

// Go spawns a simulation process (runs when Run/RunFor advance time).
func (s *Sim) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	return s.Env.Go(name, fn)
}

// Run advances virtual time until no further events exist (the cluster has
// quiesced).
func (s *Sim) Run() { s.Env.Run() }

// RunFor advances virtual time by d.
func (s *Sim) RunFor(d time.Duration) { s.Env.RunUntil(s.Env.Now() + d) }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.Env.Now() }

// SharePods returns the typed SharePod client. What a client returns is the
// API server's read-only snapshot: change objects only in a Mutate closure,
// and give up what you pass to Create, which publishes it uncopied.
func (s *Sim) SharePods() apiserver.Client[*core.SharePod] {
	return core.SharePods(s.Cluster.API)
}

// VGPUs returns the typed VGPU client.
func (s *Sim) VGPUs() apiserver.Client[*core.VGPU] {
	return core.VGPUs(s.Cluster.API)
}

// Pods returns the typed native-pod client. As with SharePods, a caller
// gives up what it passes to Create and reads only snapshots.
func (s *Sim) Pods() apiserver.Client[*api.Pod] { return s.Cluster.Pods() }

// SharePodSets returns the typed SharePodSet client. As with SharePods, a
// caller gives up what it passes to Create and reads only snapshots.
func (s *Sim) SharePodSets() apiserver.Client[*core.SharePodSet] {
	return core.SharePodSets(s.Cluster.API)
}

// CreateSharePod submits a copy of sp, which stays the caller's, and returns
// the stored snapshot.
func (s *Sim) CreateSharePod(sp *SharePod) (*SharePod, error) {
	return s.SharePods().Create(sp.DeepCopyObject().(*SharePod))
}

// RegisterImage binds an image name to an entrypoint for containers
// launched in this cluster.
func (s *Sim) RegisterImage(name string, entry ImageEntrypoint) {
	s.Cluster.Images.Register(name, entry)
}

// ImageEntrypoint is a container main function; it receives the container
// context (proc, env vars, CUDA handle) and its return value is the
// container's exit status.
type ImageEntrypoint = runtime.Entrypoint

// ContainerCtx is the execution context passed to an ImageEntrypoint.
type ContainerCtx = runtime.Ctx

// Watch subscribes to a kind ("SharePod", "VGPU", "Pod", "Node", ...) with
// optional server-side filtering (WatchOptions: exact name, bound node,
// owner kind, label key). Events the filter rejects are never delivered —
// the subscription costs O(matching events), not O(cluster churn). Each event carries a shared
// read-only snapshot: read it freely, keep it as long as you like, never
// write to it. Cancel with StopWatch.
func (s *Sim) Watch(kind string, opts WatchOptions) *sim.Queue[Event] {
	return s.Cluster.API.WatchFiltered(kind, opts)
}

// StopWatch cancels a subscription created by Watch and closes its queue.
func (s *Sim) StopWatch(q *sim.Queue[Event]) { s.Cluster.API.StopWatch(q) }

// Stats is a point-in-time snapshot of cluster and KubeShare state — the
// one-call observability surface replacing ad-hoc per-object queries.
type Stats struct {
	// Now is the virtual time of the snapshot.
	Now time.Duration
	// SharePods counts all SharePod objects; Pending/Running/Terminated
	// break them down by phase group.
	SharePods           int
	PendingSharePods    int
	RunningSharePods    int
	TerminatedSharePods int
	// VGPUs counts pool devices; IdleVGPUs those without tenants.
	VGPUs     int
	IdleVGPUs int
	// Pods and Nodes count the native objects.
	Pods  int
	Nodes int
	// Decisions is the number of Algorithm 1 invocations so far (0 without
	// KubeShare installed).
	Decisions int64
	// Usage maps each running sharePod to its current sliding-window GPU
	// usage share as measured by the node's device library backend — the
	// signal Figure 6 plots.
	Usage map[string]float64
}

// Stats returns a consistent snapshot of the cluster at the current virtual
// instant.
func (s *Sim) Stats() Stats {
	st := Stats{
		Now:   s.Env.Now(),
		Pods:  s.Pods().Count(),
		Nodes: apiserver.Nodes(s.Cluster.API).Count(),
		Usage: map[string]float64{},
	}
	if s.KS == nil {
		return st
	}
	st.Decisions = s.KS.Stats().Decisions
	for _, v := range s.VGPUs().List() {
		st.VGPUs++
		if v.Status.Phase == core.VGPUIdle {
			st.IdleVGPUs++
		}
	}
	for _, sp := range s.SharePods().List() {
		st.SharePods++
		switch {
		case sp.Terminated():
			st.TerminatedSharePods++
		case sp.Status.Phase == core.SharePodRunning:
			st.RunningSharePods++
			st.Usage[sp.Name] = s.usageRate(sp)
		default:
			st.PendingSharePods++
		}
	}
	return st
}

func (s *Sim) usageRate(sp *SharePod) float64 {
	if sp.Status.UUID == "" || sp.Status.BoundPod == "" {
		return 0
	}
	backend, ok := s.KS.Backends[sp.Spec.NodeName]
	if !ok {
		return 0
	}
	// StrategyOf, never StrategyFor: reading usage must not instantiate a
	// strategy and thereby pin the device's sharing mode.
	strat := backend.StrategyOf(sp.Status.UUID)
	if strat == nil {
		return 0
	}
	total := 0.0
	for _, c := range sp.Spec.Pod.Containers {
		total += strat.UsageRate(sp.Status.BoundPod + "/" + c.Name)
	}
	return total
}
