// Package chaos injects deterministic faults into the simulated cluster:
// node crashes and restarts, vGPU holder-pod kills, GPU device faults
// (Xid-style), and apiserver watch-stream drops. Every fault schedule is
// drawn from seeded substreams on the virtual clock, so a run is a pure
// function of (cluster, workload, seed) — a failing soak reproduces from
// its printed seed.
//
// The injector never repairs state behind the system's back: each fault is
// delivered through the same surface a real failure would use (the kubelet
// loses its procs, the holder pod's containers die, the device poisons its
// contexts, the watch stream closes), and recovery is left entirely to the
// control plane under test.
package chaos

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
)

// Config is a fault schedule. Each fault class fires on a Poisson process
// with the given mean interval; a zero mean disables the class. Injection
// stops at Horizon (outages begun before the horizon still end — the
// injector always restarts what it crashed and clears what it faulted, so
// the cluster is fault-free after the last outage drains).
type Config struct {
	Seed int64
	// Horizon is how long faults are injected (virtual time from Start).
	Horizon time.Duration

	// NodeCrashMean is the mean interval between whole-node crashes.
	NodeCrashMean time.Duration
	// NodeOutageMean is the mean downtime before a crashed node restarts.
	NodeOutageMean time.Duration

	// HolderKillMean is the mean interval between vGPU holder-pod kills
	// (the token-manager daemon dying in place).
	HolderKillMean time.Duration

	// DeviceFaultMean is the mean interval between GPU device faults.
	DeviceFaultMean time.Duration
	// DeviceOutageMean is the mean time a device stays faulted.
	DeviceOutageMean time.Duration

	// WatchDropMean is the mean interval between watch-stream drops, each
	// severing one randomly chosen reflector.
	WatchDropMean time.Duration

	// APIRestartMean is the mean interval between apiserver crash/restarts.
	// Each restart discards every in-memory store and watch structure and
	// warm-recovers from checkpoint + WAL replay; requires the cluster's
	// apiserver to have durability enabled (see apiserver.EnableDurability).
	APIRestartMean time.Duration
	// APIRestartTornTailEvery corrupts the WAL tail before every Nth
	// restart (0 = never), forcing the torn-tail truncate-and-recover path.
	APIRestartTornTailEvery int
}

// Stats counts the faults actually delivered.
type Stats struct {
	NodeCrashes  int
	HolderKills  int
	DeviceFaults int
	WatchDrops   int
	APIRestarts  int
	// TornTails counts the APIRestarts preceded by WAL-tail corruption.
	TornTails int
	// Replayed sums the WAL records replayed across all restarts.
	Replayed int64
	// OutageNS sums the modeled unavailability windows (checkpoint re-read
	// plus WAL replay cost) across all restarts.
	OutageNS int64
}

// Total returns the number of faults delivered across all classes.
func (s Stats) Total() int {
	return s.NodeCrashes + s.HolderKills + s.DeviceFaults + s.WatchDrops + s.APIRestarts
}

func (s Stats) String() string {
	return fmt.Sprintf("crashes=%d holderKills=%d deviceFaults=%d watchDrops=%d apiRestarts=%d tornTails=%d",
		s.NodeCrashes, s.HolderKills, s.DeviceFaults, s.WatchDrops, s.APIRestarts, s.TornTails)
}

// Injector drives one fault schedule against a cluster.
type Injector struct {
	env *sim.Env
	c   *kube.Cluster
	cfg Config
	rng *simrand.Source
	// partitions, when set, draws how long each dropped watch stays down
	// (see watchPartitions); nil drops reconnect at once.
	partitions *simrand.Source
	stats      Stats
	start      time.Duration
	recorder   *obs.Recorder
	// err is the first fault the injector could not undo (a node that would
	// not restart, a failed apiserver restore); the loop that hit it stops.
	err error
}

// New creates an injector for the cluster. Call Start to begin injecting.
func New(c *kube.Cluster, cfg Config) *Injector {
	return &Injector{
		env: c.Env, c: c, cfg: cfg, rng: simrand.New(cfg.Seed),
		recorder: c.Obs.EventSource("chaos"),
	}
}

// Stats returns the faults delivered so far.
func (in *Injector) Stats() Stats { return in.stats }

// Start launches one proc per enabled fault class. Each class forks its own
// substream, so enabling or disabling one class never perturbs the schedule
// of another.
func (in *Injector) Start() {
	in.start = in.env.Now()
	if in.cfg.NodeCrashMean > 0 {
		rng := in.rng.Fork("nodes")
		in.env.Go("chaos-nodes", func(p *sim.Proc) { in.nodeLoop(p, rng) })
	}
	if in.cfg.HolderKillMean > 0 {
		rng := in.rng.Fork("holders")
		in.env.Go("chaos-holders", func(p *sim.Proc) { in.holderLoop(p, rng) })
	}
	if in.cfg.DeviceFaultMean > 0 {
		rng := in.rng.Fork("devices")
		in.env.Go("chaos-devices", func(p *sim.Proc) { in.deviceLoop(p, rng) })
	}
	if in.cfg.WatchDropMean > 0 {
		rng := in.rng.Fork("watches")
		in.env.Go("chaos-watches", func(p *sim.Proc) { in.watchLoop(p, rng) })
	}
	if in.cfg.APIRestartMean > 0 {
		rng := in.rng.Fork("apiserver")
		in.env.Go("chaos-apiserver", func(p *sim.Proc) { in.apiLoop(p, rng) })
	}
}

// expired reports whether the injection horizon has passed.
func (in *Injector) expired() bool {
	return in.env.Now()-in.start >= in.cfg.Horizon
}

// nodeLoop crashes a random live node, waits out the outage, and restarts
// it. The crash kills the kubelet's loops and every container on the node
// without reporting anything — the control plane must notice via the stale
// heartbeat.
func (in *Injector) nodeLoop(p *sim.Proc, rng *simrand.Source) {
	for {
		p.Sleep(rng.ExpDuration(in.cfg.NodeCrashMean))
		if in.expired() {
			return
		}
		var up []*kube.Node
		for _, n := range in.c.Nodes {
			if !n.Kubelet.Crashed() {
				up = append(up, n)
			}
		}
		if len(up) == 0 {
			continue
		}
		node := up[rng.Intn(len(up))]
		node.Kubelet.Crash()
		in.stats.NodeCrashes++
		in.recorder.Event("Node", node.Name, obs.EventWarning, "NodeCrashed",
			"kubelet and all containers killed")
		outage := rng.ExpDuration(in.cfg.NodeOutageMean)
		if outage < time.Second {
			outage = time.Second
		}
		p.Sleep(outage)
		if err := node.Kubelet.Restart(); err != nil {
			if in.err == nil {
				in.err = fmt.Errorf("chaos: restart %s: %w", node.Name, err)
			}
			return
		}
		in.recorder.Event("Node", node.Name, obs.EventNormal, "NodeRestarted",
			"kubelet back after ", outage.String(), " outage")
	}
}

// holderLoop kills a random live vGPU holder pod's containers in place —
// the per-device token-manager daemon dying while its node stays healthy.
func (in *Injector) holderLoop(p *sim.Proc, rng *simrand.Source) {
	for {
		p.Sleep(rng.ExpDuration(in.cfg.HolderKillMean))
		if in.expired() {
			return
		}
		// Live holder pods on live nodes, in store (name) order — a
		// deterministic candidate list for the seeded pick.
		var candidates []struct {
			pod  string
			node *kube.Node
		}
		for _, pod := range apiserver.Pods(in.c.API).List() {
			if pod.Labels[core.LabelVGPUHolder] == "" || pod.Terminated() {
				continue
			}
			if node, ok := in.c.Node(pod.Spec.NodeName); ok && !node.Kubelet.Crashed() {
				candidates = append(candidates, struct {
					pod  string
					node *kube.Node
				}{pod.Name, node})
			}
		}
		if len(candidates) == 0 {
			continue
		}
		pick := candidates[rng.Intn(len(candidates))]
		if pick.node.Kubelet.KillPod(pick.pod) {
			in.stats.HolderKills++
			in.recorder.Event("Pod", pick.pod, obs.EventWarning, "HolderKilled",
				"vGPU holder containers killed on ", pick.node.Name)
		}
	}
}

// deviceLoop faults a random healthy GPU (in-flight kernels die, contexts
// poison) and clears the fault after the outage — the device recovers, but
// contexts opened before the fault stay poisoned, as after a real Xid.
func (in *Injector) deviceLoop(p *sim.Proc, rng *simrand.Source) {
	gpus := in.c.AllGPUs()
	for {
		p.Sleep(rng.ExpDuration(in.cfg.DeviceFaultMean))
		if in.expired() {
			return
		}
		dev := gpus[rng.Intn(len(gpus))]
		if dev.Faulted() {
			continue
		}
		dev.InjectFault()
		in.stats.DeviceFaults++
		outage := rng.ExpDuration(in.cfg.DeviceOutageMean)
		if outage < 100*time.Millisecond {
			outage = 100 * time.Millisecond
		}
		p.Sleep(outage)
		dev.ClearFault()
	}
}

// apiLoop crashes the apiserver process itself: every in-memory store
// structure — objects, indexes, open watches, resumable history, the event
// sink's dedup index — is discarded at one virtual instant and rebuilt from
// the durable checkpoint plus WAL replay. Before every Nth restart the WAL
// tail is corrupted (truncated mid-frame or bit-flipped, alternating), so
// recovery must also exercise the truncate-and-recover path. Nothing is
// repaired behind the system's back: every watch consumer sees its stream
// close and must relist into the new epoch on its own.
func (in *Injector) apiLoop(p *sim.Proc, rng *simrand.Source) {
	for {
		p.Sleep(rng.ExpDuration(in.cfg.APIRestartMean))
		if in.expired() {
			return
		}
		torn := false
		if every := in.cfg.APIRestartTornTailEvery; every > 0 && (in.stats.APIRestarts+1)%every == 0 {
			// Alternate damage shape: 0 flips the final byte (CRC mismatch),
			// 1..4 truncates that many bytes (short frame).
			torn = in.c.API.TearWALTail(rng.Intn(5))
		}
		st, err := in.c.API.Restart()
		if err != nil {
			if in.err == nil {
				in.err = fmt.Errorf("chaos: apiserver restart: %w", err)
			}
			return
		}
		in.stats.APIRestarts++
		in.stats.Replayed += int64(st.Replayed)
		in.stats.OutageNS += st.ModeledOutageNS
		if torn {
			in.stats.TornTails++
		}
		in.recorder.Event("APIServer", "control-plane", obs.EventWarning, "APIServerCrashed",
			fmt.Sprintf("store dropped; recovered rev %d (%d replayed, torn=%v)", st.RestoredRev, st.Replayed, st.TornTail))
	}
}

// watchLoop severs one randomly chosen reflector stream. The reflector's
// next Get reconnects — resuming from its last revision, or relisting if
// the gap was compacted — so consumers must come through without losing
// deltas.
func (in *Injector) watchLoop(p *sim.Proc, rng *simrand.Source) {
	for {
		p.Sleep(rng.ExpDuration(in.cfg.WatchDropMean))
		if in.expired() {
			return
		}
		rs := in.c.API.Reflectors("")
		if len(rs) == 0 {
			continue
		}
		r := rs[rng.Intn(len(rs))]
		if in.partitions != nil {
			r.DropFor(in.partitions.ExpDuration(partitionMean))
		} else {
			r.Drop()
		}
		in.stats.WatchDrops++
		in.recorder.Event("Watch", r.Kind(), obs.EventWarning, "WatchDropped",
			"reflector stream severed")
	}
}
