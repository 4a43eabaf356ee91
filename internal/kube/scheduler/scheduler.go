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

// bindLatency models the per-pod scheduling cycle (queue pop, filter, score,
// bind API call), approximating the default scheduler's.
const bindLatency = 10 * time.Millisecond

// Scheduler is the cluster's pod scheduler.
type Scheduler struct {
	env *sim.Env
	srv *apiserver.Server

	nodes map[string]*api.Node
	// Incrementally maintained views of the pods, updated from watch deltas
	// so the scheduling loop never rescans the full pod set:
	//   bound     — bound, non-terminated pods, whose requests an update
	//               or deletion takes back from committed;
	//   committed — per-node sum of bound's requests;
	//   pending   — unbound, non-terminated pods awaiting placement;
	//   order     — pending sorted by (CreationTime, Name), rebuilt lazily.
	// A terminated pod is in no view, so no snapshot kept here outlives the
	// pod's part in scheduling; a relist that leaves a pod alone after a
	// restart does not refresh it.
	bound     map[string]*api.Pod
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
func New(env *sim.Env, srv *apiserver.Server) *Scheduler {
	rt := srv.Obs()
	return &Scheduler{
		env:       env,
		srv:       srv,
		nodes:     make(map[string]*api.Node),
		bound:     make(map[string]*api.Pod),
		committed: make(map[string]api.ResourceList),
		pending:   make(map[string]*api.Pod),
		wake:      sim.NewQueue[struct{}](env),
		tracer:    rt.Tracer(),
		binds:     rt.Counter("kubeshare_scheduler_binds_total"),
		depth:     rt.Gauge("kubeshare_scheduler_pending_pods"),
		bindHist:  rt.Histogram("kubeshare_scheduler_bind_latency_seconds"),
	}
}

// setPod is the single mutation point for the pod views; nil removes. It
// keeps them consistent by taking back the pod's old contribution and then
// applying the new pod's.
func (s *Scheduler) setPod(name string, pod *api.Pod) {
	if old, ok := s.bound[name]; ok {
		s.nodeCommitted(old.Spec.NodeName).Sub(old.Spec.Requests())
		delete(s.bound, name)
	} else if _, p := s.pending[name]; p {
		delete(s.pending, name)
		s.dirty = true
	}
	if pod == nil {
		return
	}
	if pod.Spec.NodeName != "" && !pod.Terminated() {
		s.nodeCommitted(pod.Spec.NodeName).Add(pod.Spec.Requests())
		s.bound[name] = pod
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
	s.srv.Inform("kube-scheduler", "kube-scheduler-watch-pods", "Pod", apiserver.WatchOptions{Replay: true}, func(_ *sim.Proc, ev store.Event) {
		pod := ev.Object.(*api.Pod)
		if ev.Type == store.Deleted {
			s.setPod(pod.Name, nil)
		} else {
			s.setPod(pod.Name, pod)
		}
		s.kick()
	})
	s.srv.Inform("kube-scheduler", "kube-scheduler-watch-nodes", "Node", apiserver.WatchOptions{Replay: true}, func(_ *sim.Proc, ev store.Event) {
		node := ev.Object.(*api.Node)
		if ev.Type == store.Deleted {
			delete(s.nodes, node.Name)
		} else {
			s.nodes[node.Name] = node
		}
		s.kick()
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
			p.Sleep(bindLatency)
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

// pickNode returns the node the pod goes on, "" when none can host it: of
// the Ready nodes matching its selector with room for its requests
// (extended resources as opaque aggregate counts), the least allocated — the
// most residual CPU fraction after placement. (score, name) is a strict
// total order, so the argmax is deterministic over the unordered node map
// (ties to the lowest name). The fit check reads the per-node committed
// cache directly; no intermediate ResourceList is materialized.
func (s *Scheduler) pickNode(pod *api.Pod) string {
	need := pod.Spec.Requests()
	best := ""
	bestScore := 0.0
nodes:
	for name, node := range s.nodes {
		if !node.Status.Ready || !node.MatchesSelector(pod.Spec.NodeSelector) {
			continue
		}
		alloc, com := node.Status.Allocatable, s.committed[name]
		for k, v := range need {
			if v > alloc[k]-com[k] {
				continue nodes
			}
		}
		score := 0.0
		if a := alloc[api.ResourceCPU]; a > 0 {
			score = float64(a-com[api.ResourceCPU]-need[api.ResourceCPU]) / float64(a)
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
	// NodeName and ScheduledTime land in one revision, as the pods/binding
	// subresource writes them; a kubelet phase report in between makes the
	// Bind conflict and retry on it, never lose it.
	updated, err := apiserver.Pods(s.srv).Bind(pod.Name, func(p *api.Pod) error {
		if p.Spec.NodeName == "" {
			p.Spec.NodeName = node
		}
		if p.Status.ScheduledTime == 0 {
			p.Status.ScheduledTime = s.env.Now()
		}
		return nil
	})
	if err != nil {
		s.setPod(pod.Name, nil) // deleted while in queue
		return
	}
	s.setPod(pod.Name, updated)
	s.binds.Inc()
	// Bind latency is submit-to-bind; the span lands on the pod's causal
	// chain (its owner's chain for controller-created pods, so sharePod
	// holder/bound pods trace under their sharePod).
	s.tracer.Record("kube-scheduler", "bind", api.TraceKey(updated), pod.CreationTime, "node=", node)
	s.bindHist.Observe((s.env.Now() - pod.CreationTime).Seconds())
}
