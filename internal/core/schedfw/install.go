package schedfw

import (
	"kubeshare/internal/core"
	"kubeshare/internal/kube"
)

// Install deploys KubeShare onto a cluster with the framework driver — the
// standard composition: the shared base wiring (validators, holder image,
// per-node device-library backends, DevMgr) plus the batched scheduler.
// With no options each cycle decides one sharePod; pass WithBatchSize /
// WithGangTimeout to opt into the framework extensions.
func Install(c *kube.Cluster, cfg core.Config, opts ...Option) (*core.KubeShare, error) {
	ks := core.InstallBase(c, cfg)
	sched := New(c.Env, c.API, opts...)
	ks.Sched = sched
	ks.DevMgr.Start()
	sched.Start()
	return ks, nil
}

// InstallExtender deploys the scheduler-extender baseline in place of
// KubeShare-Sched, sharing the DevMgr and device-library machinery so the
// comparison isolates the scheduling policy.
func InstallExtender(c *kube.Cluster, cfg core.Config) (*core.KubeShare, *Extender, error) {
	ks := core.InstallBase(c, cfg)
	ext := NewExtender(c.Env, c.API)
	ks.Sched = ext
	ks.DevMgr.Start()
	ext.Start()
	return ks, ext, nil
}
