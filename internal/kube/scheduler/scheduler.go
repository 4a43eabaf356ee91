// Package scheduler implements the default kube-scheduler: it watches for
// unbound pods, filters nodes on resource fit (including extended resources
// as opaque aggregate counts) and node selectors, scores by least
// allocation, and binds.
//
// Deliberately preserved limitation (§3.1–3.2 of the paper): the scheduler
// sees only each node's *total* extended-resource capacity — never the
// identity or per-device load of individual GPUs — and has no say in which
// physical device the kubelet attaches. KubeShare exists because of this.
package scheduler

import (
	"sort"
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Config parameterizes the scheduler.
type Config struct {
	// BindLatency models the per-pod scheduling cycle (queue pop, filter,
	// score, bind API call).
	BindLatency time.Duration
}

// DefaultBindLatency approximates the default scheduler's per-pod cycle.
const DefaultBindLatency = 10 * time.Millisecond

// Scheduler is the cluster's pod scheduler.
type Scheduler struct {
	env *sim.Env
	srv *apiserver.Server
	cfg Config

	nodes map[string]*api.Node
	pods  map[string]*api.Pod
	// Incrementally maintained views of s.pods, updated from watch deltas so
	// the scheduling loop never rescans the full pod set:
	//   committed — per-node sum of requests of bound, non-terminated pods;
	//   pending   — unbound, non-terminated pods awaiting placement;
	//   order     — pending sorted by (CreationTime, Name), rebuilt lazily.
	committed map[string]api.ResourceList
	pending   map[string]*api.Pod
	order     []*api.Pod
	dirty     bool
	wake      *sim.Queue[struct{}]

	// Telemetry (no-op handles when the cluster runs without obs).
	tracer   *obs.Tracer
	binds    *obs.Counter
	depth    *obs.Gauge
	bindHist *obs.Histogram
}

// New creates a scheduler. Call Start to begin scheduling.
func New(env *sim.Env, srv *apiserver.Server, cfg Config) *Scheduler {
	if cfg.BindLatency == 0 {
		cfg.BindLatency = DefaultBindLatency
	}
	rt := srv.Obs()
	return &Scheduler{
		env:       env,
		srv:       srv,
		cfg:       cfg,
		nodes:     make(map[string]*api.Node),
		pods:      make(map[string]*api.Pod),
		committed: make(map[string]api.ResourceList),
		pending:   make(map[string]*api.Pod),
		wake:      sim.NewQueue[struct{}](env),
		tracer:    rt.Tracer(),
		binds:     rt.Counter("kubeshare_scheduler_binds_total"),
		depth:     rt.Gauge("kubeshare_scheduler_pending_pods"),
		bindHist:  rt.Histogram("kubeshare_scheduler_bind_latency_seconds"),
	}
}

// setPod is the single mutation point for s.pods; nil removes. It keeps the
// committed and pending views consistent by applying the old pod's
// contribution in reverse and then the new pod's forward.
func (s *Scheduler) setPod(name string, pod *api.Pod) {
	if old, ok := s.pods[name]; ok {
		if old.Spec.NodeName != "" && !old.Terminated() {
			s.nodeCommitted(old.Spec.NodeName).Sub(old.Spec.Requests())
		} else if _, p := s.pending[name]; p {
			delete(s.pending, name)
			s.dirty = true
		}
	}
	if pod == nil {
		delete(s.pods, name)
		return
	}
	s.pods[name] = pod
	if pod.Spec.NodeName != "" && !pod.Terminated() {
		s.nodeCommitted(pod.Spec.NodeName).Add(pod.Spec.Requests())
	} else if !pod.Terminated() {
		s.pending[name] = pod
		s.dirty = true
	}
	s.depth.Set(int64(len(s.pending)))
}

func (s *Scheduler) nodeCommitted(node string) api.ResourceList {
	rl := s.committed[node]
	if rl == nil {
		rl = api.ResourceList{}
		s.committed[node] = rl
	}
	return rl
}

// Start launches the watch and scheduling loops. The streams run through
// reflectors, so the incremental caches stay exact across watch drops.
func (s *Scheduler) Start() {
	podR := s.srv.NewNamedReflector("kube-scheduler", "Pod", apiserver.WatchOptions{Replay: true})
	nodeR := s.srv.NewNamedReflector("kube-scheduler", "Node", apiserver.WatchOptions{Replay: true})
	s.env.Go("kube-scheduler-watch-pods", func(p *sim.Proc) {
		for {
			ev, ok := podR.Get(p)
			if !ok {
				return
			}
			pod := ev.Object.(*api.Pod)
			if ev.Type == store.Deleted {
				s.setPod(pod.Name, nil)
			} else {
				s.setPod(pod.Name, pod)
			}
			s.kick()
		}
	})
	s.env.Go("kube-scheduler-watch-nodes", func(p *sim.Proc) {
		for {
			ev, ok := nodeR.Get(p)
			if !ok {
				return
			}
			node := ev.Object.(*api.Node)
			if ev.Type == store.Deleted {
				delete(s.nodes, node.Name)
			} else {
				s.nodes[node.Name] = node
			}
			s.kick()
		}
	})
	s.env.Go("kube-scheduler", s.loop)
}

// kick nudges the scheduling loop (coalesced: at most one pending wakeup).
func (s *Scheduler) kick() {
	if s.wake.Len() == 0 {
		s.wake.Put(struct{}{})
	}
}

func (s *Scheduler) loop(p *sim.Proc) {
	for {
		if _, ok := s.wake.Get(p); !ok {
			return
		}
		for {
			pod := s.nextPending()
			if pod == nil {
				break
			}
			p.Sleep(s.cfg.BindLatency)
			s.scheduleOne(pod)
		}
	}
}

// nextPending returns the oldest unbound, unscheduled pod that fits some
// node right now, or nil.
func (s *Scheduler) nextPending() *api.Pod {
	if s.dirty {
		s.order = s.order[:0]
		for _, pod := range s.pending {
			s.order = append(s.order, pod)
		}
		sort.Slice(s.order, func(i, j int) bool {
			a, b := s.order[i], s.order[j]
			if a.CreationTime != b.CreationTime {
				return a.CreationTime < b.CreationTime
			}
			return a.Name < b.Name
		})
		s.dirty = false
	}
	for _, pod := range s.order {
		if s.pickNode(pod) != "" {
			return pod
		}
	}
	return nil
}

// candidate is the per-node view the phase functions operate on: the node
// object, its live committed resources and the pod's materialized requests.
type candidate struct {
	node *api.Node
	com  api.ResourceList
	need api.ResourceList
}

// nodeFilter reports whether the candidate node may host the pod; nodeScore
// ranks the survivors (higher is better). The slices below mirror the plugin
// phases of the core scheduling framework (internal/core/schedfw), kept as
// plain function tables here: this scheduler deliberately predates the
// framework architecturally — it sees only aggregate node capacity — and
// importing schedfw would invert the layering.
type nodeFilter func(pod *api.Pod, c candidate) bool
type nodeScore func(pod *api.Pod, c candidate) float64

var defaultFilters = []nodeFilter{
	// node readiness
	func(pod *api.Pod, c candidate) bool { return c.node.Status.Ready },
	// node selector
	func(pod *api.Pod, c candidate) bool { return c.node.MatchesSelector(pod.Spec.NodeSelector) },
	// aggregate resource fit (extended resources as opaque counts)
	func(pod *api.Pod, c candidate) bool {
		alloc := c.node.Status.Allocatable
		for k, v := range c.need {
			if v > alloc[k]-c.com[k] {
				return false
			}
		}
		return true
	},
}

var defaultScores = []nodeScore{
	// Least-allocated: prefer the node with the most residual CPU fraction
	// after placement.
	func(pod *api.Pod, c candidate) float64 {
		if a := c.node.Status.Allocatable[api.ResourceCPU]; a > 0 {
			return float64(a-c.com[api.ResourceCPU]-c.need[api.ResourceCPU]) / float64(a)
		}
		return 0
	},
}

// pickNode runs the filter phase then a score argmax and returns the chosen
// node name ("" when no node survives filtering). The filters read the
// per-node committed cache directly — no intermediate ResourceList is
// materialized — and (score, name) is a strict total order over candidates,
// so the argmax is deterministic over the unordered node map (ties broken by
// lowest name).
func (s *Scheduler) pickNode(pod *api.Pod) string {
	need := pod.Spec.Requests()
	best := ""
	bestScore := 0.0
candidates:
	for name, node := range s.nodes {
		c := candidate{node: node, com: s.committed[name], need: need}
		for _, f := range defaultFilters {
			if !f(pod, c) {
				continue candidates
			}
		}
		score := 0.0
		for _, sc := range defaultScores {
			score += sc(pod, c)
		}
		if best == "" || score > bestScore || (score == bestScore && name < best) {
			best, bestScore = name, score
		}
	}
	return best
}

// scheduleOne binds pod to its chosen node.
func (s *Scheduler) scheduleOne(pod *api.Pod) {
	node := s.pickNode(pod)
	if node == "" {
		return
	}
	pods := apiserver.Pods(s.srv)
	updated, err := pods.Mutate(pod.Name, func(p *api.Pod) error {
		if p.Spec.NodeName == "" {
			p.Spec.NodeName = node
		}
		return nil
	})
	if err != nil {
		s.setPod(pod.Name, nil) // deleted while in queue
		return
	}
	// ScheduledTime is status; written through the status subresource so the
	// bind above never races with kubelet phase reports.
	if updated, err = pods.MutateStatus(pod.Name, func(p *api.Pod) error {
		if p.Status.ScheduledTime == 0 {
			p.Status.ScheduledTime = s.env.Now()
		}
		return nil
	}); err != nil {
		s.setPod(pod.Name, nil)
		return
	}
	s.setPod(pod.Name, updated)
	s.binds.Inc()
	// Bind latency is submit-to-bind; the span lands on the pod's causal
	// chain (its owner's chain for controller-created pods, so sharePod
	// holder/bound pods trace under their sharePod).
	id := s.tracer.Record("kube-scheduler", "bind", api.TraceKey(updated), "node="+node, pod.CreationTime)
	s.bindHist.ObserveDurationExemplar(s.env.Now()-pod.CreationTime, api.TraceKey(updated), id)
}
