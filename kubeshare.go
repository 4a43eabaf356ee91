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
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/devlib"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
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
	// VGPU is the pool-device custom resource.
	VGPU = core.VGPU
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
	// Share is the device library's view of a fractional GPU allocation.
	Share = devlib.Share
	// Proc is a simulation process handle (the argument of Go callbacks).
	Proc = sim.Proc
	// Event is one watch notification delivered by Sim.Watch. Its Object is
	// the store's shared read-only snapshot of that revision — every
	// watcher and every Get/List receives the same pointer — so never
	// write to it.
	Event = store.Event
	// WatchOptions narrows a Sim.Watch subscription: exact name, bound
	// node, owner kind, label selector, and replay of the current state.
	WatchOptions = store.WatchOptions
	// Selector filters objects by labels (see SelectorFromMap / HasLabel).
	Selector = labels.Selector
	// Span is one operation in the causal trace (see Sim.Trace).
	Span = obs.Span
	// EventRecord is one recorded cluster event (see Sim.Events).
	EventRecord = obs.EventRecord
	// MetricsSnapshot is a point-in-time registry dump (see Sim.Metrics).
	MetricsSnapshot = obs.MetricsSnapshot
	// SchedStats is the one-call scheduling/recovery counter snapshot,
	// read from the telemetry registry (see Sim.SchedStats).
	SchedStats = core.SchedStats
	// Placement is a typed placement: node, vGPU and whether the share is
	// fractional (see SharePod.Placement).
	Placement = core.Placement
)

// Trace helpers re-exported from the telemetry runtime.
var (
	// TraceChain filters spans down to one chain (e.g. "SharePod/hello").
	TraceChain = obs.Chain
	// FormatSpans and FormatEvents render deterministic text dumps.
	FormatSpans  = obs.FormatSpans
	FormatEvents = obs.FormatEvents
)

// Selector constructors for Sim.Watch / ListSelector filters.
var (
	// SelectorFromMap builds an equality selector from key=value pairs.
	SelectorFromMap = labels.SelectorFromMap
	// HasLabel builds a selector matching objects carrying the label key.
	HasLabel = labels.HasKey
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

	// EventAdded, EventModified and EventDeleted classify watch events.
	EventAdded    = store.Added
	EventModified = store.Modified
	EventDeleted  = store.Deleted
)

// config collects the options.
type config struct {
	nodes       int
	gpusPerNode int
	gpuMem      int64
	ks          core.Config
	sched       []schedfw.Option
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

// WithGPUMemory sets per-GPU memory in bytes (default 16 GiB).
func WithGPUMemory(bytes int64) Option { return func(c *config) { c.gpuMem = bytes } }

// WithPoolPolicy selects the idle-vGPU policy (default OnDemand).
func WithPoolPolicy(p core.PoolPolicy) Option {
	return func(c *config) { c.ks.DevMgr.Policy = p }
}

// WithTokenQuota sets the device library token quota (default 100ms).
func WithTokenQuota(d time.Duration) Option {
	return func(c *config) { c.ks.Devlib.Quota = d }
}

// WithMemOvercommit enables GPUswap-style memory over-commitment: the
// scheduler may place containers whose gpu_mem shares sum to factor (>1)
// on a device, and the device library swaps working sets host↔device at
// token handoff.
func WithMemOvercommit(factor float64) Option {
	return func(c *config) {
		c.ks.Scheduler.MemOvercommitFactor = factor
		c.ks.Devlib.MemOvercommit = true
	}
}

// WithExtenderScheduler installs the scheduler-extender baseline instead of
// KubeShare-Sched (for comparisons).
func WithExtenderScheduler() Option { return func(c *config) { c.extender = true } }

// WithSchedulerBatch sets how many placements one scheduling cycle may
// stage (default 1 — the legacy pace). Larger batches amortize the cycle
// latency and pool materialization across many decisions.
func WithSchedulerBatch(n int) Option {
	return func(c *config) { c.sched = append(c.sched, schedfw.WithBatchSize(n)) }
}

// WithGangTimeout bounds how long an incomplete gang (SharePodSet with Gang
// enabled) may hold reserved capacity against younger work.
func WithGangTimeout(d time.Duration) Option {
	return func(c *config) { c.sched = append(c.sched, schedfw.WithGangTimeout(d)) }
}

// WithSchedulerOptions passes framework driver options through verbatim
// (plugin sets, batch sizes — see the schedfw package).
func WithSchedulerOptions(opts ...schedfw.Option) Option {
	return func(c *config) { c.sched = append(c.sched, opts...) }
}

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
	cfg := config{nodes: 1, gpusPerNode: 4}
	for _, o := range opts {
		o(&cfg)
	}
	env := sim.NewEnv()
	kc := kube.Config{DisableObs: cfg.noObs}
	for i := 0; i < cfg.nodes; i++ {
		kc.Nodes = append(kc.Nodes, kube.NodeConfig{
			Name:   fmt.Sprintf("node-%d", i),
			GPUs:   cfg.gpusPerNode,
			GPUMem: cfg.gpuMem,
		})
	}
	cluster, err := kube.NewCluster(env, kc)
	if err != nil {
		return nil, err
	}
	workload.RegisterImages(cluster)
	s := &Sim{Env: env, Cluster: cluster}
	switch {
	case cfg.noKubeShare:
	case cfg.extender:
		ks, _, err := schedfw.InstallExtender(cluster, cfg.ks, cfg.sched...)
		if err != nil {
			return nil, err
		}
		s.KS = ks
	default:
		ks, err := schedfw.Install(cluster, cfg.ks, cfg.sched...)
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
// API server's read-only snapshot: change objects only in a Mutate closure.
func (s *Sim) SharePods() apiserver.Client[*core.SharePod] {
	return core.SharePods(s.Cluster.API)
}

// VGPUs returns the typed VGPU client.
func (s *Sim) VGPUs() apiserver.Client[*core.VGPU] {
	return core.VGPUs(s.Cluster.API)
}

// Pods returns the typed native-pod client.
func (s *Sim) Pods() apiserver.Client[*api.Pod] { return s.Cluster.Pods() }

// SharePodSets returns the typed SharePodSet client.
func (s *Sim) SharePodSets() apiserver.Client[*core.SharePodSet] {
	return core.SharePodSets(s.Cluster.API)
}

// CreateSharePod submits a copy of sp and returns the stored snapshot.
func (s *Sim) CreateSharePod(sp *SharePod) (*SharePod, error) {
	return s.SharePods().Create(sp)
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
// optional server-side filtering by exact name and label selector. Events
// the filter rejects are never delivered — the subscription costs
// O(matching events), not O(cluster churn). Each event carries a shared
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

// SchedStats snapshots the scheduling and recovery counters off the
// telemetry registry: decisions, requeues, no-capacity cycles, pending
// depth, and DevMgr vGPU recoveries — the single struct replacing the old
// per-counter accessors. Zero-valued when the Sim was built
// WithoutKubeShare or WithoutObservability.
func (s *Sim) SchedStats() SchedStats {
	if s.KS == nil {
		return SchedStats{}
	}
	return s.KS.Stats()
}

// Metrics returns a point-in-time snapshot of every counter, gauge and
// histogram in the cluster's telemetry registry, sorted by name. The
// snapshot is empty when the Sim was built WithoutObservability.
func (s *Sim) Metrics() MetricsSnapshot { return s.Cluster.Obs.Snapshot() }

// Trace returns a copy of every span recorded so far, in creation order.
// Spans carry causal parent links within their chain key; filter one
// object's chain with TraceChain(s.Trace(), "SharePod/<name>").
func (s *Sim) Trace() []Span { return s.Cluster.Obs.Tracer().Spans() }

// Events returns the ordered log of every cluster event recorded so far
// (scheduling rejections, vGPU lifecycle, device faults, chaos, ...). The
// same events are persisted as deduplicated api.Event objects, watchable
// via Watch("Event", ...).
func (s *Sim) Events() []EventRecord { return s.Cluster.Obs.Events() }

// EventObjects returns the persisted api.Event objects (deduplicated by
// involved object + reason, with occurrence counts), sorted by name.
func (s *Sim) EventObjects() []*api.Event {
	return apiserver.Events(s.Cluster.API).List()
}
