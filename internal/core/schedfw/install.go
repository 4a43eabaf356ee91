package schedfw

import (
	"kubeshare/internal/core"
	"kubeshare/internal/kube"
)

// Install deploys KubeShare onto a cluster with the framework driver — the
// standard composition: the shared base wiring (validators, holder image,
// per-node device-library backends, DevMgr) plus the batched plugin-phased
// scheduler. With no options the sequential compat cycle runs (single-unit
// batches, Algorithm 1 phases in order); pass WithBatchSize /
// WithGangTimeout / WithPlugins to opt into the framework extensions.
func Install(c *kube.Cluster, cfg core.Config, opts ...Option) (*core.KubeShare, error) {
	ks, err := core.InstallBase(c, cfg)
	if err != nil {
		return nil, err
	}
	sched := New(c.Env, c.API, append([]Option{WithConfig(cfg.Scheduler)}, opts...)...)
	ks.Sched = sched
	ks.DevMgr.Start()
	sched.Start()
	return ks, nil
}

// InstallExtender deploys the scheduler-extender baseline on the framework
// driver in place of KubeShare-Sched, sharing the DevMgr and device-library
// machinery so the comparison isolates the scheduling policy.
func InstallExtender(c *kube.Cluster, cfg core.Config, opts ...Option) (*core.KubeShare, *Extender, error) {
	ks, err := core.InstallBase(c, cfg)
	if err != nil {
		return nil, nil, err
	}
	ext := NewExtender(c.Env, c.API, append([]Option{WithConfig(cfg.Scheduler)}, opts...)...)
	ks.Sched = ext
	ks.DevMgr.Start()
	ext.Start()
	return ks, ext, nil
}
