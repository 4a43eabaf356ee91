package main

import (
	"fmt"
	"time"

	"kubeshare/internal/chaos"
	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
	"kubeshare/internal/workload"
)

// churnBatch is sched_churn's scheduler cycle budget (fig16's).
const churnBatch = 256

// world is one constructed workload: the program under test plus the
// benchmark's own load procs (submitter, completer, restarter), ready for
// Env.Run or a Step loop.
type world struct {
	in      *input
	env     *sim.Env
	api     *apiserver.Server
	cluster *kube.Cluster   // nil on sched_churn
	ks      *core.KubeShare // nil on sched_churn
	sched   *schedfw.Scheduler
	tr      *tracer // nil unless spans are being recorded
	parent  int     // the span the load procs' calls nest under

	attempted int // creates the submitter has issued, failed ones included
	retired   int // sched_churn: sharePods the completer finished
	replayed  int // WAL records replayed across every restart
	// loadErr is the first failure of a call the benchmark made into the
	// program (create, retire, restart); a failed op, never a panic.
	loadErr error
}

func (w *world) fail(err error) {
	if w.loadErr == nil {
		w.loadErr = err
	}
}

// build constructs the workload's cluster and load procs. With tr non-nil
// every call the load procs make into a layer is recorded as a span under
// w.parent.
func build(in *input, disableObs bool, tr *tracer) (*world, error) {
	w := &world{in: in, env: sim.NewEnv(), tr: tr}
	if in.spec.fullStack {
		cfg := kube.Config{DisableObs: disableObs}
		for i := 0; i < in.spec.nodes; i++ {
			cfg.Nodes = append(cfg.Nodes, kube.NodeConfig{Name: fmt.Sprintf("node-%d", i), GPUs: in.spec.gpusPerNode})
		}
		c, err := kube.NewCluster(w.env, cfg)
		if err != nil {
			return nil, err
		}
		workload.RegisterImages(c)
		w.cluster, w.api = c, c.API
		if in.spec.name == wDurableRestart {
			// Before any KubeShare consumer subscribes, so the whole run is
			// covered by the enable-time checkpoint plus the log.
			c.API.EnableDurability(apiserver.DurabilityConfig{CheckpointInterval: checkpointEvery})
			w.env.Go("bench-restarter", w.restarter)
		}
		if w.ks, err = schedfw.Install(c, core.Config{}); err != nil {
			return nil, err
		}
	} else {
		var rt *obs.Runtime
		if !disableObs {
			rt = obs.New(w.env)
		}
		w.api = apiserver.NewWithObs(w.env, rt)
		if err := createNodes(w.api, in.spec.nodes, in.spec.gpusPerNode); err != nil {
			return nil, err
		}
		w.env.Go("bench-completer", w.completer)
		w.sched = schedfw.New(w.env, w.api, schedfw.WithBatchSize(churnBatch))
		w.sched.Start()
	}
	w.env.Go("bench-submitter", w.submitter)
	return w, nil
}

// createNodes registers ready Node objects with no kubelet behind them: the
// pool a control-plane-only scheduler places onto.
func createNodes(srv *apiserver.Server, nodes, gpusPerNode int) error {
	for i := 0; i < nodes; i++ {
		gpus := api.ResourceList{api.ResourceGPU: int64(gpusPerNode)}
		_, err := apiserver.Nodes(srv).Create(&api.Node{
			ObjectMeta: api.ObjectMeta{Name: fmt.Sprintf("node-%04d", i)},
			Status:     api.NodeStatus{Capacity: gpus, Allocatable: gpus.Clone(), Ready: true},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// submitter is the open-loop load generator: it sleeps to each scheduled
// arrival and creates the sharePod, whatever the cluster's progress.
func (w *world) submitter(p *sim.Proc) {
	sps := core.SharePods(w.api)
	for i, sp := range w.in.pods {
		if wait := w.in.arrivals[i] - w.env.Now(); wait > 0 {
			p.Sleep(wait)
		}
		end := w.tr.begin("SharePods.Create", "apiserver", w.parent)
		_, err := sps.Create(sp)
		end()
		w.attempted++
		if err != nil {
			w.fail(fmt.Errorf("create %s: %w", sp.Name, err))
		}
	}
}

// completer stands in for the node side on sched_churn: a placed sharePod
// finishes its service time after scheduling, and the completer's next sweep
// reports that, which frees the slice for the next wave through the
// scheduler's SharePod watch.
func (w *world) completer(p *sim.Proc) {
	sps := core.SharePods(w.api)
	service := make(map[string]time.Duration, len(w.in.pods))
	for i, sp := range w.in.pods {
		service[sp.Name] = w.in.service[i]
	}
	for w.retired < len(w.in.pods) && w.loadErr == nil {
		p.Sleep(churnService / 4)
		now := w.env.Now()
		var expired []string
		end := w.tr.begin("SharePods.Scan", "apiserver", w.parent)
		sps.Scan(func(sp *core.SharePod) bool {
			if sp.Placed() && !sp.Terminated() && sp.Status.ScheduledTime+service[sp.Name] <= now {
				expired = append(expired, sp.Name)
			}
			return true
		})
		end()
		for _, name := range expired {
			end := w.tr.begin("SharePods.MutateStatus", "apiserver", w.parent)
			_, err := sps.MutateStatus(name, func(sp *core.SharePod) error {
				sp.Status.Phase = core.SharePodSucceeded
				sp.Status.FinishTime = sp.Status.ScheduledTime + service[name]
				return nil
			})
			end()
			if err != nil {
				w.fail(fmt.Errorf("retire %s: %w", name, err))
				return
			}
			w.retired++
		}
	}
}

// restarter crashes and warm-recovers the apiserver at each scheduled
// instant of the arrival window.
func (w *world) restarter(p *sim.Proc) {
	for _, at := range w.in.restarts {
		if wait := at - w.env.Now(); wait > 0 {
			p.Sleep(wait)
		}
		end := w.tr.begin("API.Restart", "apiserver", w.parent)
		st, err := w.api.Restart()
		end()
		if err != nil {
			w.fail(fmt.Errorf("restart at %v: %w", at, err))
			return
		}
		w.replayed += st.Replayed
	}
}

// finished is the workload's completion predicate: every sharePod submitted
// and terminal.
func (w *world) finished() bool {
	if w.attempted < len(w.in.pods) {
		return false
	}
	done := true
	core.SharePods(w.api).Scan(func(sp *core.SharePod) bool {
		done = sp.Terminated()
		return done
	})
	return done
}

// stepUntilFinished drives the kernel one event at a time until the
// completion predicate holds (evaluated once per virtual second, so the
// step count is a pure function of the input) and returns the steps taken.
// The caller drains the rest with Env.Run. Daemon wakeups keep Step returning
// true for ever, so a wedged sharePod ends the loop at a horizon past the
// last arrival and is left for the output checks to report.
func (w *world) stepUntilFinished() int64 {
	var steps int64
	nextCheck := time.Second
	horizon := w.in.arrivals[len(w.in.arrivals)-1] + time.Hour
	for w.env.Step() {
		steps++
		if now := w.env.Now(); now >= nextCheck {
			if w.finished() || now > horizon {
				break
			}
			nextCheck = now + time.Second
		}
	}
	return steps
}

// outcome reads the placement records and runs the output checks at
// quiescence.
func (w *world) outcome() outcome {
	var recs []placement
	for _, sp := range core.SharePods(w.api).List() {
		start := sp.Status.RunningTime
		if !w.in.spec.fullStack {
			start = sp.Status.ScheduledTime
		}
		recs = append(recs, placement{
			Name: sp.Name, Node: sp.Spec.NodeName, GPUID: sp.Spec.GPUID,
			Created: sp.CreationTime, Scheduled: sp.Status.ScheduledTime,
			Started: start, Finish: sp.Status.FinishTime,
			Request: sp.Spec.GPURequest, Mem: sp.Spec.GPUMem,
			Succeeded: sp.Status.Phase == core.SharePodSucceeded,
			Restarts:  sp.Status.Restarts,
		})
	}
	names := make([]string, len(w.in.pods))
	for i, sp := range w.in.pods {
		names[i] = sp.Name
	}
	out := checkPlacements(names, recs)
	if w.loadErr != nil {
		out.problems = append(out.problems, w.loadErr.Error())
	}
	if w.ks != nil {
		for _, err := range chaos.VerifyQuiescence(w.cluster, w.ks) {
			out.problems = append(out.problems, "quiescence: "+err.Error())
		}
	} else if err := w.sched.VerifySnapshot(); err != nil {
		out.problems = append(out.problems, "snapshot: "+err.Error())
	}
	return out
}
