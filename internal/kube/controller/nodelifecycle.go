package controller

import (
	"time"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
)

// Failure detection timing.
const (
	// checkInterval is the sweep period.
	checkInterval = time.Second
	// heartbeatGrace is how stale a heartbeat may be before the node is
	// declared NotReady — a few missed renewals, not one hiccup.
	heartbeatGrace = 3 * time.Second
	// evictionTimeout is how long a node stays NotReady before its pods are
	// evicted.
	evictionTimeout = 10 * time.Second
)

// NodeLifecycle is the node-lifecycle controller: it watches kubelet
// heartbeats, marks silent nodes NotReady (unschedulable), and after an
// eviction timeout deletes the pods bound to them so owning controllers
// reschedule or replace the lost work. A node whose kubelet resumes
// heartbeating recovers: Ready is restored and the eviction clock resets —
// a flapping node that recovers within the timeout loses nothing.
type NodeLifecycle struct {
	env *sim.Env
	srv *apiserver.Server

	notReadySince map[string]time.Duration
}

// NewNodeLifecycle creates the controller; Start launches its sweep loop.
func NewNodeLifecycle(env *sim.Env, srv *apiserver.Server) *NodeLifecycle {
	return &NodeLifecycle{
		env:           env,
		srv:           srv,
		notReadySince: make(map[string]time.Duration),
	}
}

// Start launches the periodic sweep as a daemon proc (it must not keep
// run-to-quiescence simulations alive).
func (nl *NodeLifecycle) Start() {
	nl.env.GoDaemon("node-lifecycle", func(p *sim.Proc) {
		for {
			p.Sleep(checkInterval)
			nl.sweep()
		}
	})
}

func (nl *NodeLifecycle) sweep() {
	now := nl.env.Now()
	nodes := apiserver.Nodes(nl.srv)
	for _, node := range nodes.List() {
		name := node.Name
		stale := now-node.Status.HeartbeatTime > heartbeatGrace
		if !stale {
			if !node.Status.Ready {
				_, _ = nodes.MutateStatus(name, func(n *api.Node) error {
					n.Status.Ready = true
					return nil
				})
			}
			delete(nl.notReadySince, name)
			continue
		}
		if _, known := nl.notReadySince[name]; !known {
			nl.notReadySince[name] = now
			if node.Status.Ready {
				_, _ = nodes.MutateStatus(name, func(n *api.Node) error {
					n.Status.Ready = false
					return nil
				})
			}
		}
		// Level-triggered past the timeout: pods that land on the dead node
		// after a first eviction pass (in-flight binds) are swept too.
		if now-nl.notReadySince[name] >= evictionTimeout {
			nl.evict(name)
		}
	}
}

// evict deletes every non-terminated pod bound to the dead node. Deletion —
// not a Failed status — is deliberate: it is the one signal every owner
// already handles (DevMgr requeues sharePods whose bound pod vanished and
// recovers vGPUs whose holder disappeared).
func (nl *NodeLifecycle) evict(nodeName string) {
	pods := apiserver.Pods(nl.srv)
	for _, pod := range pods.List() {
		if pod.Spec.NodeName != nodeName || pod.Terminated() {
			continue
		}
		if err := pods.Delete(pod.Name); err != nil && !apiserver.IsNotFound(err) {
			return // the sweep retries next interval
		}
	}
}
