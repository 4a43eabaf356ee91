package core

import (
	"fmt"
	"strings"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib"
	"kubeshare/internal/kube"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/runtime"
)

// Config bundles the KubeShare component configurations.
type Config struct {
	DevMgr DevMgrConfig
	Devlib devlib.Config
}

// Sched is the scheduler surface KubeShare needs from whichever driver is
// installed — the schedfw batched driver or the extender baseline. Counters
// live on the obs registry (KubeShare.Stats), uniform across drivers.
type Sched interface {
	// VerifySnapshot cross-checks the driver's incremental cluster view
	// against a full relist (nil for drivers that keep none).
	VerifySnapshot() error
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
func InstallBase(c *kube.Cluster, cfg Config) *KubeShare {
	ks := &KubeShare{
		Cluster:  c,
		Backends: make(map[string]*devlib.Backend),
	}
	c.API.RegisterValidator(KindSharePod, ValidateSharePod)
	ks.DevMgr = NewDevMgr(c.Env, c.API, cfg.DevMgr, ks.Backends)
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
		ks.DevMgr.ReportUUID(ctx.Pod, uuid)
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
			f, err := backend.Frontend(base, pod.Name, pod.Name+"/"+ctn.Name)
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
	return ks
}
