package schedfw

import (
	"sort"
	"strconv"

	"kubeshare/internal/core"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Extender is the scheduler-extender comparison baseline (Aliyun gpushare,
// GaiaGPU, Deepomatic — §3.1/§6). It shares InstallBase, DevMgr and the
// device library with KubeShare-Sched but runs its own cycle loop — a
// coalesced wake, one placement per cycle — with the extender's
// aggregate-capacity policy in place of Algorithm 1. Fractional
// demands count against each node's aggregate GPU capacity and the in-node
// device binding is a round-robin the scheduler neither sees nor controls —
// reproducing the Figure 3a pathology Algorithm 1 avoids.
//
// The policy keeps the extender architecture's re-list-per-cycle accounting
// (it has no incremental snapshot — that is part of the baseline's cost),
// but populates the shared scheduling counters, so KubeShare.Stats is
// uniform across drivers.
type Extender struct {
	env *sim.Env
	srv *apiserver.Server

	rr map[string]int // node → round-robin device cursor
	// singleDevice restricts binding to device 0 of each node — the
	// Deepomatic-style limitation (Table 1: no multi-GPU-per-node support).
	singleDevice bool

	wake waker

	decisions  *obs.Counter
	noCapacity *obs.Counter
	depth      *obs.Gauge
}

// NewExtender creates the baseline scheduler; Start launches it.
func NewExtender(env *sim.Env, srv *apiserver.Server) *Extender {
	rt := srv.Obs()
	return &Extender{
		env:        env,
		srv:        srv,
		rr:         make(map[string]int),
		wake:       newWaker(env),
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

// Start launches the watch and scheduling loops. The watches ride
// reflectors, like every other control loop, so an apiserver restart or a
// dropped stream re-subscribes instead of leaving the cycle unkicked forever.
func (s *Extender) Start() {
	for _, kind := range []string{core.KindSharePod, "Pod"} {
		s.srv.Inform("extender", "extender-watch-"+kind, kind, apiserver.WatchOptions{Replay: kind == core.KindSharePod}, func(*sim.Proc, store.Event) {
			s.wake.kick()
		})
	}
	s.env.Go("extender-sched", func(p *sim.Proc) {
		for s.wake.wait(p) {
			for s.runCycle(p) {
			}
		}
	})
}

// runCycle places the oldest pending sharePod that fits a re-listed view's
// aggregate capacity, one placement per cycle, and reports whether it
// placed one.
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
	p.Sleep(core.CycleLatency)
	committedUtil, committedMem := s.aggregates()
	for _, cand := range pending {
		// From the server, not a cache: the baseline pays the extender's re-read per candidate.
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
		s.commit(sp.Name, "ext-"+node+"-gpu"+strconv.Itoa(idx), node)
		return true
	}
	s.noCapacity.Inc()
	return false
}

// commit writes a placement and the Scheduled phase in one Bind. A refused
// write leaves the sharePod to a later cycle.
func (s *Extender) commit(name, gpuID, node string) {
	_, _ = core.SharePods(s.srv).Bind(name, func(cur *core.SharePod) error {
		cur.Spec.GPUID = gpuID
		cur.Spec.NodeName = node
		cur.Status.Phase = core.SharePodScheduled
		cur.Status.ScheduledTime = s.env.Now()
		return nil
	})
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
// the request. It returns the node name and its GPU count.
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
	return fits[0].name, fits[0].gpus
}
