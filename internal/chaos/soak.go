package chaos

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/apiserver"
	"kubeshare/internal/sim"
	"kubeshare/internal/simrand"
	"kubeshare/internal/workload"
)

// SoakConfig drives one end-to-end recovery soak: a serving workload runs
// on KubeShare while every fault class fires, then the faults stop and the
// cluster must converge to a state satisfying the recovery invariants.
type SoakConfig struct {
	Seed        int64
	Nodes       int
	GPUsPerNode int

	// Jobs is the number of serving jobs; each runs JobDuration.
	Jobs        int
	JobDuration time.Duration
	// SubmitWindow spreads the submissions over this span. Faults are
	// injected for the submit window plus one job duration.
	SubmitWindow time.Duration

	// Faults overrides the fault schedule (zero value takes the defaults
	// below; the Seed and Horizon fields are always filled in here).
	Faults Config
	// NoFaults disables every fault class — the control run for
	// availability comparisons.
	NoFaults bool
}

// WithDefaults returns the config with every unset field filled in — the
// baseline schedule callers can scale from.
func (c SoakConfig) WithDefaults() SoakConfig {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 2
	}
	if c.Jobs == 0 {
		c.Jobs = 24
	}
	if c.JobDuration == 0 {
		c.JobDuration = 20 * time.Second
	}
	if c.SubmitWindow == 0 {
		c.SubmitWindow = 40 * time.Second
	}
	f := &c.Faults
	if c.NoFaults {
		*f = Config{}
	} else {
		if f.NodeCrashMean == 0 {
			f.NodeCrashMean = 25 * time.Second
		}
		if f.NodeOutageMean == 0 {
			f.NodeOutageMean = 6 * time.Second
		}
		if f.HolderKillMean == 0 {
			f.HolderKillMean = 12 * time.Second
		}
		if f.DeviceFaultMean == 0 {
			f.DeviceFaultMean = 20 * time.Second
		}
		if f.DeviceOutageMean == 0 {
			f.DeviceOutageMean = 2 * time.Second
		}
		if f.WatchDropMean == 0 {
			f.WatchDropMean = 4 * time.Second
		}
		if f.APIRestartMean == 0 {
			f.APIRestartMean = 35 * time.Second
		}
		if f.APIRestartTornTailEvery == 0 {
			f.APIRestartTornTailEvery = 2
		}
	}
	f.Seed = c.Seed
	f.Horizon = c.SubmitWindow + c.JobDuration
	return c
}

// partitionMean is the mean time a partitioned watch stays down.
const partitionMean = 3 * time.Second

// watchPartitions picks, from the seed, whether a soak's watch drops are
// partitions, and if so the watch-history cap they run under (0: no
// partitions, the store's default cap). A quarter of the seeds with watch
// drops hold each dropped stream down for an exponential time of mean
// partitionMean and compact the history hard, as etcd does, to 8, 16 or 32
// events. A stream that comes back then mostly finds its resume point
// compacted and relists (410 Gone), and the relist diff meets survivors
// written while it was down. The draws come from forks of their own, so
// they perturb no other stream; the returned source draws the down times.
func watchPartitions(cfg SoakConfig) (histCap int, down *simrand.Source) {
	if cfg.Faults.WatchDropMean <= 0 {
		return 0, nil
	}
	rng := simrand.New(cfg.Seed).Fork("watch-history")
	if rng.Intn(4) != 0 {
		return 0, nil
	}
	return 8 << rng.Intn(3), simrand.New(cfg.Seed).Fork("watch-partition")
}

// soakBound caps a soak's simulation; the run must quiesce before it.
const soakBound = 20 * time.Minute

// SoakResult summarizes one soak run.
type SoakResult struct {
	Faults Stats
	// Outcomes over the submitted sharePods.
	Succeeded, Failed, Rejected int
	// Restarts sums SharePod restart counters (requeue edges taken).
	Restarts int
	// Requeues is the scheduler's bound-pod-loss recovery count.
	Requeues int64
	// Recoveries/RecoveryFails are DevMgr's vGPU recovery counters.
	Recoveries, RecoveryFails int64
	// Resumes/Relists sum reflector reconnect statistics cluster-wide.
	Resumes, Relists int
	// Elapsed is the virtual time the last sharePod reached a terminal
	// phase — the workload makespan under faults.
	Elapsed time.Duration
	// Violations holds every invariant breach found at quiescence.
	Violations []error
}

// Soak runs the chaos soak and checks the recovery invariants. The run is
// deterministic in cfg.Seed.
func Soak(cfg SoakConfig) (SoakResult, error) { return soak(cfg, nil) }

// soak is Soak with a seam for the package's tests: instrument, when
// non-nil, sees the cluster before any workload or fault proc exists.
func soak(cfg SoakConfig, instrument func(*kube.Cluster)) (SoakResult, error) {
	cfg = cfg.WithDefaults()
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(cfg.Nodes, cfg.GPUsPerNode))
	if err != nil {
		return SoakResult{}, err
	}
	workload.RegisterImages(c)
	if instrument != nil {
		instrument(c)
	}
	histCap, partitions := watchPartitions(cfg)
	if histCap > 0 {
		c.API.SetWatchHistoryCap(histCap)
	}
	// Durability goes on before any consumer starts, so the enable-time
	// checkpoint covers the empty store and every later mutation is logged.
	if cfg.Faults.APIRestartMean > 0 {
		c.API.EnableDurability(apiserver.DurabilityConfig{})
	}
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		return SoakResult{}, err
	}

	jobs := workload.Generate(workload.GeneratorConfig{
		Jobs:             cfg.Jobs,
		MeanInterArrival: cfg.SubmitWindow / time.Duration(cfg.Jobs),
		DemandMean:       0.35,
		DemandVar:        1,
		JobDuration:      cfg.JobDuration,
		Seed:             simrand.New(cfg.Seed).Fork("workload").Seed(),
	})
	var submitErr error
	workload.Submit(env, c.API, len(jobs), func(i int) (time.Duration, api.Object) {
		return jobs[i].Arrival, workload.SharePodFor(jobs[i])
	}, &submitErr)

	inj := New(c, cfg.Faults)
	inj.partitions = partitions
	inj.Start()
	env.RunUntil(soakBound)
	if submitErr != nil {
		return SoakResult{}, fmt.Errorf("chaos soak: %w", submitErr)
	}
	if inj.err != nil {
		return SoakResult{}, inj.err
	}

	res := SoakResult{Faults: inj.Stats()}
	for _, sp := range core.SharePods(c.API).List() {
		res.Restarts += sp.Status.Restarts
		if sp.Status.FinishTime > res.Elapsed {
			res.Elapsed = sp.Status.FinishTime
		}
		switch sp.Status.Phase {
		case core.SharePodSucceeded:
			res.Succeeded++
		case core.SharePodFailed:
			res.Failed++
		case core.SharePodRejected:
			res.Rejected++
		}
	}
	res.Requeues = ks.Stats().Requeues
	res.Recoveries, res.RecoveryFails = ks.DevMgr.Recoveries()
	for _, r := range c.API.Reflectors("") {
		resumes, relists, _ := r.Stats()
		res.Resumes += resumes
		res.Relists += relists
	}
	res.Violations = VerifyQuiescence(c, ks)
	// Final warm-recovery audit: one more crash/restore at quiescence must
	// be invisible — the restored store, the relisted reflector caches and
	// the scheduler snapshot all have to land exactly where they were, and
	// every recovery invariant must hold again after the grace window.
	if cfg.Faults.APIRestartMean > 0 {
		if _, err := c.API.Restart(); err != nil {
			return res, fmt.Errorf("chaos soak: final restart audit: %w", err)
		}
		env.RunUntil(soakBound + time.Minute)
		for _, v := range VerifyQuiescence(c, ks) {
			res.Violations = append(res.Violations, fmt.Errorf("post-restore: %w", v))
		}
	}
	return res, nil
}

// VerifyQuiescence checks the post-chaos recovery invariants on a cluster
// that should have fully converged (faults stopped, workload finished):
//
//  1. Every sharePod reached a terminal phase — nothing is wedged in
//     Pending/Scheduled/Running with no pod behind it.
//  2. No pod objects are still live (bound pods and holders all resolved).
//  3. No vGPU objects remain (on-demand policy releases every device), and
//     DevMgr's tenant cache is empty — no leaked device shares or orphaned
//     tenant entries.
//  4. Every container list and instantiated sharing strategy (token, mps or
//     replica) is empty and resumed: no filed pods, clients or waiters — a
//     leaked client would pin quota on a device forever.
//  5. No device is left faulted, and every node is back to Ready.
//  6. KubeShare-Sched's incremental snapshot still matches a full relist
//     (pool equivalence survived every watch drop, resume and relist).
func VerifyQuiescence(c *kube.Cluster, ks *core.KubeShare) []error {
	var bad []error
	for _, sp := range core.SharePods(c.API).List() {
		if !sp.Terminated() {
			bad = append(bad, fmt.Errorf("sharePod %s wedged in %s (restarts=%d, boundPod=%q)",
				sp.Name, sp.Status.Phase, sp.Status.Restarts, sp.Status.BoundPod))
		}
	}
	for _, pod := range apiserver.Pods(c.API).List() {
		if !pod.Terminated() {
			bad = append(bad, fmt.Errorf("pod %s still live in %s on %s",
				pod.Name, pod.Status.Phase, pod.Spec.NodeName))
		}
	}
	if n := core.VGPUs(c.API).Count(); n != 0 {
		bad = append(bad, fmt.Errorf("%d vGPU objects leaked after quiescence", n))
	}
	for gpuID, tenants := range ks.DevMgr.TenantView() {
		bad = append(bad, fmt.Errorf("orphaned tenant entries on %s: %v", gpuID, tenants))
	}
	for _, nodeName := range slices.Sorted(maps.Keys(ks.Backends)) {
		backend := ks.Backends[nodeName]
		if pods := backend.ContainerList(); len(pods) > 0 {
			bad = append(bad, fmt.Errorf("node %s container list holds %v after quiescence", nodeName, pods))
		}
		for _, uuid := range backend.Devices() {
			strat := backend.StrategyOf(uuid)
			if strat.Down() {
				bad = append(bad, fmt.Errorf("%s strategy %s@%s left suspended", strat.Mode(), uuid, nodeName))
			}
			if n := strat.Clients(); n != 0 {
				bad = append(bad, fmt.Errorf("%s strategy %s@%s leaked %d clients", strat.Mode(), uuid, nodeName, n))
			}
			if n := strat.Stats().QueueDepth; n != 0 {
				bad = append(bad, fmt.Errorf("%s strategy %s@%s has %d stuck waiters", strat.Mode(), uuid, nodeName, n))
			}
		}
	}
	for _, node := range c.Nodes {
		for _, dev := range node.GPUs {
			if dev.Faulted() {
				bad = append(bad, fmt.Errorf("device %s left faulted", dev.UUID()))
			}
		}
		if node.Kubelet.Crashed() {
			bad = append(bad, fmt.Errorf("node %s left crashed", node.Name))
		}
	}
	for _, n := range apiserver.Nodes(c.API).List() {
		if !n.Status.Ready {
			bad = append(bad, fmt.Errorf("node %s still NotReady", n.Name))
		}
	}
	if ks.Sched != nil {
		if err := ks.Sched.VerifySnapshot(); err != nil {
			bad = append(bad, fmt.Errorf("snapshot diverged from relist: %w", err))
		}
	}
	return bad
}
