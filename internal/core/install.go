package core

import (
	"fmt"
	"strconv"
	"strings"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/runtime"
)

// Config bundles the KubeShare component configurations.
type Config struct {
	Scheduler SchedulerConfig
	DevMgr    DevMgrConfig
	Devlib    devlib.Config
}

// Sched is the scheduler surface KubeShare needs from whichever driver is
// installed — the schedfw batched driver or the extender baseline. Counters
// live on the obs registry, so Stats is uniform across drivers.
type Sched interface {
	Start()
	Stop()
	// VerifySnapshot cross-checks the driver's incremental cluster view
	// against a full relist (nil for drivers that keep none).
	VerifySnapshot() error
	// Stats snapshots the scheduling counters.
	Stats() SchedStats
}

// KubeShare is the installed framework: both controllers plus the per-node
// device library backends.
type KubeShare struct {
	Cluster *kube.Cluster
	// Sched is the installed scheduler driver (nil only when the caller
	// wires its own scheduler onto an InstallBase).
	Sched  Sched
	DevMgr *DevMgr
	// SetManager reconciles SharePodSet replica controllers (§4.6).
	SetManager *SharePodSetManager
	// Backends holds the per-node device-library daemon, keyed by node name.
	Backends map[string]*devlib.Backend
}

// Stats snapshots the cluster's scheduling and recovery counters.
func (k *KubeShare) Stats() SchedStats {
	return ReadSchedStats(k.Cluster.Obs)
}

// InstallBase performs the wiring shared by every scheduler flavour:
// validators, the holder image, per-node backends and library hooks, and an
// (unstarted) DevMgr. The caller supplies and starts the scheduler driver
// (and should set KubeShare.Sched to it) — schedfw.Install is the standard
// composition.
func InstallBase(c *kube.Cluster, cfg Config) (*KubeShare, error) {
	ks := &KubeShare{
		Cluster:  c,
		Backends: make(map[string]*devlib.Backend),
	}
	c.API.RegisterValidator(KindSharePod, ValidateSharePod)
	ks.DevMgr = NewDevMgr(c.Env, c.API, cfg.DevMgr)
	ks.SetManager = NewSharePodSetManager(c.Env, c.API)
	ks.SetManager.Start()

	// The holder image: pin the allocated GPU and report its UUID from the
	// container environment back to DevMgr.
	c.Images.Register(HolderImage, func(ctx *runtime.Ctx) error {
		visible := ctx.Env["NVIDIA_VISIBLE_DEVICES"]
		uuid := strings.Split(visible, ",")[0]
		if uuid == "" {
			return fmt.Errorf("holder started without a GPU")
		}
		ks.DevMgr.ReportUUID(ctx.Pod.Name, uuid)
		ctx.Proc.Hibernate() // hold the GPU until the pod is deleted
		return nil
	})

	// Per-node device library backend + the LD_PRELOAD-equivalent hook:
	// containers of bound pods load the vGPU frontend instead of the raw
	// driver.
	dcfg := cfg.Devlib
	dcfg.Obs = c.Obs // backends share the cluster-wide telemetry runtime
	for _, node := range c.Nodes {
		backend := devlib.NewBackend(c.Env, dcfg)
		ks.Backends[node.Name] = backend
		node.Runtime.AddLibraryHook(func(pod *api.Pod, ctn api.Container, base cuda.API) (cuda.API, error) {
			if pod.Labels[LabelSharePod] == "" || base == nil {
				return nil, nil // not ours: fall through to the raw driver
			}
			share, err := shareFromAnnotations(pod.Annotations)
			if err != nil {
				return nil, fmt.Errorf("kubeshare: bound pod %s has bad annotations: %w", pod.Name, err)
			}
			// An absent mode annotation means "node default" (StrategyFor's
			// ""), not "token" — only explicit per-pod modes override.
			var mode sharing.Mode
			if s := pod.Annotations[AnnSharingMode]; s != "" {
				if mode, err = sharing.ParseMode(s); err != nil {
					return nil, fmt.Errorf("kubeshare: bound pod %s has bad annotations: %w", pod.Name, err)
				}
			}
			// A device serves one mode: a pod co-placed with tenants of
			// another fails here, its container only.
			strat, err := backend.StrategyFor(base.Device().UUID, mode)
			if err != nil {
				return nil, fmt.Errorf("kubeshare: install frontend for %s: %w", pod.Name, err)
			}
			f, err := devlib.NewFrontendWith(base, strat, pod.Name+"/"+ctn.Name, share, backend.Config())
			if err != nil {
				return nil, fmt.Errorf("kubeshare: install frontend for %s: %w", pod.Name, err)
			}
			// Bound pods carry OwnerName "SharePod/<name>", so the
			// frontend's token-grant / kernel-launch trace marks land on
			// the owning sharePod's causal chain.
			f.SetTraceKey(api.TraceKey(pod))
			return f, nil
		})
	}
	// vGPU recovery needs to suspend/resume the dying pod's token manager.
	ks.DevMgr.SetBackends(ks.Backends)

	return ks, nil
}

// Stop terminates the KubeShare controllers (backends are passive).
func (ks *KubeShare) Stop() {
	if ks.Sched != nil {
		ks.Sched.Stop()
	}
	ks.SetManager.Stop()
	ks.DevMgr.Stop()
}

// shareFromAnnotations parses the fractional shares DevMgr stamped onto a
// bound pod.
func shareFromAnnotations(ann map[string]string) (devlib.Share, error) {
	parse := func(key string) (float64, error) {
		v, ok := ann[key]
		if !ok {
			return 0, fmt.Errorf("missing annotation %s", key)
		}
		return strconv.ParseFloat(v, 64)
	}
	req, err := parse(AnnGPURequest)
	if err != nil {
		return devlib.Share{}, err
	}
	lim, err := parse(AnnGPULimit)
	if err != nil {
		return devlib.Share{}, err
	}
	mem, err := parse(AnnGPUMem)
	if err != nil {
		return devlib.Share{}, err
	}
	share := devlib.Share{Request: req, Limit: lim, Memory: mem}
	if v, ok := ann[AnnGPUMemBytes]; ok {
		bytes, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return devlib.Share{}, fmt.Errorf("bad annotation %s: %v", AnnGPUMemBytes, err)
		}
		share.MemoryBytes = bytes
	}
	return share, nil
}
