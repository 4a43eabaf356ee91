// Package kube assembles the miniature Kubernetes cluster: API server,
// scheduler, controller manager, and per-node kubelets with container
// runtimes, GPUs and the NVIDIA device plugin. It is the testbed substitute
// for the paper's 8-node, 32-GPU AWS cluster.
package kube

import (
	"fmt"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/kube/controller"
	"kubeshare/internal/kube/deviceplugin"
	"kubeshare/internal/kube/kubelet"
	"kubeshare/internal/kube/runtime"
	"kubeshare/internal/kube/scheduler"
	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// NodeConfig describes one worker node.
type NodeConfig struct {
	Name   string
	GPUs   int
	GPUMem int64 // defaults to gpusim.DefaultMemoryBytes
	Labels map[string]string
}

// Config describes a cluster.
type Config struct {
	Nodes []NodeConfig
	// DisableObs turns the telemetry runtime off: no metrics, spans or
	// events are recorded anywhere in the cluster (the obs-off arm of
	// the instrumentation-overhead benchmark).
	DisableObs bool
}

// DefaultConfig mirrors the paper's testbed: n nodes of 4 V100s each.
func DefaultConfig(nodes int) Config {
	cfg := Config{}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, NodeConfig{Name: fmt.Sprintf("node-%d", i), GPUs: 4})
	}
	return cfg
}

// Node bundles one worker's components.
type Node struct {
	Name    string
	GPUs    []*gpusim.Device
	Runtime *runtime.Runtime
	Kubelet *kubelet.Kubelet
}

// Cluster is a fully wired control plane plus worker nodes.
type Cluster struct {
	Env *sim.Env
	// Obs is the cluster-wide telemetry runtime every component is
	// instrumented against; nil when Config.DisableObs was set.
	Obs           *obs.Runtime
	API           *apiserver.Server
	Scheduler     *scheduler.Scheduler
	RCManager     *controller.ReplicationManager
	NodeLifecycle *controller.NodeLifecycle
	Images        *runtime.ImageRegistry
	Nodes         []*Node
	nodeByName    map[string]*Node
}

// NewCluster builds and starts a cluster inside env. All components begin
// running at the current virtual instant.
func NewCluster(env *sim.Env, cfg Config) (*Cluster, error) {
	var rt *obs.Runtime
	if !cfg.DisableObs {
		rt = obs.New(env)
	}
	c := &Cluster{
		Env:        env,
		Obs:        rt,
		API:        apiserver.NewWithObs(env, rt),
		Images:     runtime.NewImageRegistry(),
		nodeByName: make(map[string]*Node),
	}
	c.API.RegisterValidator("Pod", func(o api.Object) error {
		return api.ValidatePodSpec(o.(*api.Pod).Spec)
	})
	c.Scheduler = scheduler.New(env, c.API, scheduler.Config{})
	c.Scheduler.Start()
	c.RCManager = controller.NewReplicationManager(env, c.API)
	c.RCManager.Start()
	c.NodeLifecycle = controller.NewNodeLifecycle(env, c.API)
	c.NodeLifecycle.Start()
	for _, nc := range cfg.Nodes {
		var gpus []*gpusim.Device
		for i := 0; i < nc.GPUs; i++ {
			gpus = append(gpus, gpusim.NewDevice(env, gpusim.Config{
				Index:       i,
				NodeName:    nc.Name,
				MemoryBytes: nc.GPUMem,
				Obs:         rt,
			}))
		}
		rt := runtime.New(env, c.Images, gpus, runtime.Config{})
		devmgr := deviceplugin.NewManager()
		if len(gpus) > 0 {
			if err := devmgr.Register(deviceplugin.NewNvidiaPlugin(gpus)); err != nil {
				return nil, err
			}
		}
		kl := kubelet.New(env, c.API, devmgr, rt, kubelet.Config{
			NodeName: nc.Name,
			Labels:   nc.Labels,
		})
		if err := kl.Start(); err != nil {
			return nil, err
		}
		node := &Node{Name: nc.Name, GPUs: gpus, Runtime: rt, Kubelet: kl}
		c.Nodes = append(c.Nodes, node)
		c.nodeByName[nc.Name] = node
	}
	return c, nil
}

// Node returns a worker by name.
func (c *Cluster) Node(name string) (*Node, bool) {
	n, ok := c.nodeByName[name]
	return n, ok
}

// Device resolves a GPU by UUID across all nodes.
func (c *Cluster) Device(uuid string) (*gpusim.Device, *Node, bool) {
	for _, n := range c.Nodes {
		for _, d := range n.GPUs {
			if d.UUID() == uuid {
				return d, n, true
			}
		}
	}
	return nil, nil, false
}

// AllGPUs returns every device in the cluster, node-major.
func (c *Cluster) AllGPUs() []*gpusim.Device {
	var out []*gpusim.Device
	for _, n := range c.Nodes {
		out = append(out, n.GPUs...)
	}
	return out
}

// Pods returns the typed pod client.
func (c *Cluster) Pods() apiserver.Client[*api.Pod] { return apiserver.Pods(c.API) }

// RCs returns the typed ReplicationController client.
func (c *Cluster) RCs() apiserver.Client[*api.ReplicationController] {
	return apiserver.ReplicationControllers(c.API)
}

// Nodes lists registered Node objects.
func (c *Cluster) NodeObjects() []*api.Node { return apiserver.Nodes(c.API).List() }

// WaitPodPhase parks p until the named pod reaches one of the phases (or is
// deleted, returning an error). It polls via watch events.
func (c *Cluster) WaitPodPhase(p *sim.Proc, name string, phases ...api.PodPhase) (*api.Pod, error) {
	match := func(pod *api.Pod) bool {
		for _, ph := range phases {
			if pod.Status.Phase == ph {
				return true
			}
		}
		return false
	}
	// Name-filtered subscription: unrelated pod churn never wakes the waiter.
	q := c.API.WatchFiltered("Pod", apiserver.WatchOptions{Name: name, Replay: true})
	defer c.API.StopWatch(q)
	for {
		ev, ok := q.Get(p)
		if !ok {
			return nil, fmt.Errorf("kube: watch closed waiting for %s", name)
		}
		pod := ev.Object.(*api.Pod)
		if ev.Type == store.Deleted {
			return nil, fmt.Errorf("kube: pod %s deleted while waiting", name)
		}
		if match(pod) {
			return pod, nil
		}
	}
}
