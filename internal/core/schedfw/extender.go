package schedfw

import (
	"fmt"
	"sort"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Extender is the scheduler-extender comparison baseline (Aliyun gpushare,
// GaiaGPU, Deepomatic — §3.1/§6) running on the framework driver: the same
// coalesced wake loop, batched cycles and staged bulk commits as the
// KubeShare driver, with the extender's aggregate-capacity policy in place
// of the plugin pipeline. Fractional demands count against each node's
// aggregate GPU capacity and the in-node device binding is a round-robin
// the scheduler neither sees nor controls — reproducing the Figure 3a
// pathology the plugin set avoids.
//
// The policy keeps the legacy architecture's re-list-per-cycle accounting
// (it has no incremental snapshot — that is part of the baseline's cost),
// but the driver now populates the shared scheduling counters, so
// Stats() is uniform across drivers.
type Extender struct {
	env *sim.Env
	srv *apiserver.Server
	cfg core.SchedulerConfig

	batchSize int
	rr        map[string]int // node → round-robin device cursor
	// singleDevice restricts binding to device 0 of each node — the
	// Deepomatic-style limitation (Table 1: no multi-GPU-per-node support).
	singleDevice bool

	wake       *sim.Queue[struct{}]
	proc       *sim.Proc
	watchProcs []*sim.Proc
	reflectors []*apiserver.Reflector

	decisions  *obs.Counter
	noCapacity *obs.Counter
	depth      *obs.Gauge
}

// NewExtender creates the baseline scheduler on the framework driver;
// Start launches it. Plugin and gang options do not apply to the baseline
// and are ignored.
func NewExtender(env *sim.Env, srv *apiserver.Server, opts ...Option) *Extender {
	o := options{batchSize: DefaultBatchSize}
	for _, opt := range opts {
		opt(&o)
	}
	if o.cfg.CycleLatency == 0 {
		o.cfg.CycleLatency = core.DefaultCycleLatency
	}
	if o.batchSize < 1 {
		o.batchSize = 1
	}
	rt := srv.Obs()
	return &Extender{
		env:        env,
		srv:        srv,
		cfg:        o.cfg,
		batchSize:  o.batchSize,
		rr:         make(map[string]int),
		wake:       sim.NewQueue[struct{}](env),
		decisions:  rt.Counter(core.MetricSchedDecisions),
		noCapacity: rt.Counter(core.MetricSchedNoCapacity),
		depth:      rt.Gauge(core.MetricSchedPending),
	}
}

// SetSingleDevice switches the baseline into Deepomatic mode: every
// container binds to the node's first GPU, whatever its load.
func (s *Extender) SetSingleDevice(v bool) { s.singleDevice = v }

// VerifySnapshot implements core.Sched; the baseline keeps no incremental
// view (it re-lists per cycle), so there is nothing to cross-check.
func (s *Extender) VerifySnapshot() error { return nil }

// Stats implements core.Sched.
func (s *Extender) Stats() core.SchedStats { return core.ReadSchedStats(s.srv.Obs()) }

// Start launches the watch and scheduling loops. The watches ride
// reflectors, like every other control loop, so an apiserver restart or a
// dropped stream re-subscribes instead of leaving the cycle unkicked forever.
func (s *Extender) Start() {
	for _, kind := range []string{core.KindSharePod, "Pod"} {
		r := s.srv.NewNamedReflector("extender", kind, apiserver.WatchOptions{Replay: kind == core.KindSharePod})
		s.reflectors = append(s.reflectors, r)
		s.watchProcs = append(s.watchProcs, s.env.Go("extender-watch-"+kind, func(p *sim.Proc) {
			for {
				if _, ok := r.Get(p); !ok {
					return
				}
				s.kick()
			}
		}))
	}
	s.proc = s.env.Go("extender-sched", func(p *sim.Proc) {
		for {
			if _, ok := s.wake.Get(p); !ok {
				return
			}
			p.Yield()
			s.drainWake()
			for s.runCycle(p) {
			}
		}
	})
}

// Stop terminates the scheduler.
func (s *Extender) Stop() {
	if s.proc != nil {
		s.proc.Kill(nil)
	}
	for _, p := range s.watchProcs {
		p.Kill(nil)
	}
	for _, r := range s.reflectors {
		r.Stop()
	}
}

func (s *Extender) kick() {
	if s.wake.Len() == 0 {
		s.wake.Put(struct{}{})
	}
}

func (s *Extender) drainWake() {
	for {
		if _, ok := s.wake.TryGet(); !ok {
			return
		}
	}
}

// runCycle stages up to batchSize aggregate-capacity placements against a
// re-listed view, then commits them in bulk.
func (s *Extender) runCycle(p *sim.Proc) bool {
	var pending []*core.SharePod
	for _, sp := range core.SharePods(s.srv).List() {
		if !sp.Placed() && !sp.Terminated() {
			pending = append(pending, sp)
		}
	}
	s.depth.Set(int64(len(pending)))
	if len(pending) == 0 {
		return false
	}
	core.SortByAge(pending)
	p.Sleep(s.cfg.CycleLatency)
	committedUtil, committedMem := s.aggregates()
	type binding struct {
		name  string
		gpuID string
		node  string
	}
	var out []binding
	for _, cand := range pending {
		if len(out) >= s.batchSize {
			break
		}
		sp, err := core.SharePods(s.srv).Get(cand.Name)
		if err != nil || sp.Placed() || sp.Terminated() {
			continue
		}
		s.decisions.Inc()
		node, gpus := s.pickNode(sp, committedUtil, committedMem)
		if node == "" {
			continue // no aggregate capacity anywhere; retry on change
		}
		// Round-robin in-node device binding — the piece the extender
		// architecture cannot make device-load-aware. Deepomatic mode pins
		// everything to device 0.
		idx := 0
		if !s.singleDevice {
			idx = s.rr[node] % gpus
			s.rr[node]++
		}
		out = append(out, binding{name: sp.Name, gpuID: fmt.Sprintf("ext-%s-gpu%d", node, idx), node: node})
	}
	for _, b := range out {
		if _, err := core.SharePods(s.srv).Mutate(b.name, func(cur *core.SharePod) error {
			cur.Spec.GPUID = b.gpuID
			cur.Spec.NodeName = b.node
			return nil
		}); err != nil && !apiserver.IsNotFound(err) {
			panic(fmt.Sprintf("extender: assign %s: %v", b.name, err))
		}
		if _, err := core.SharePods(s.srv).MutateStatus(b.name, func(cur *core.SharePod) error {
			cur.Status.Phase = core.SharePodScheduled
			cur.Status.ScheduledTime = s.env.Now()
			return nil
		}); err != nil && !apiserver.IsNotFound(err) {
			panic(fmt.Sprintf("extender: assign %s: %v", b.name, err))
		}
	}
	if len(out) == 0 {
		s.noCapacity.Inc()
		return false
	}
	return true
}

// aggregates sums live fractional commitments per node.
func (s *Extender) aggregates() (util, mem map[string]float64) {
	util = map[string]float64{}
	mem = map[string]float64{}
	for _, sp := range core.SharePods(s.srv).List() {
		if sp.Placed() && !sp.Terminated() {
			util[sp.Spec.NodeName] += sp.Spec.GPURequest
			mem[sp.Spec.NodeName] += sp.Spec.GPUMem
		}
	}
	return util, mem
}

// pickNode selects the node with the most free aggregate capacity that fits
// the request, mutating the aggregates so later units in the batch see the
// commitment. It returns the node name and its GPU count.
func (s *Extender) pickNode(sp *core.SharePod, util, mem map[string]float64) (string, int) {
	type cand struct {
		name string
		free float64
		gpus int
	}
	var fits []cand
	for _, node := range apiserver.Nodes(s.srv).List() {
		gpus := int(node.Status.Allocatable[api.ResourceGPU])
		if gpus == 0 {
			continue
		}
		capacity := float64(gpus)
		if util[node.Name]+sp.Spec.GPURequest > capacity+1e-9 {
			continue
		}
		if mem[node.Name]+sp.Spec.GPUMem > capacity+1e-9 {
			continue
		}
		fits = append(fits, cand{node.Name, capacity - util[node.Name], gpus})
	}
	if len(fits) == 0 {
		return "", 0
	}
	sort.Slice(fits, func(i, j int) bool {
		if fits[i].free != fits[j].free {
			return fits[i].free > fits[j].free
		}
		return fits[i].name < fits[j].name
	})
	util[fits[0].name] += sp.Spec.GPURequest
	mem[fits[0].name] += sp.Spec.GPUMem
	return fits[0].name, fits[0].gpus
}
