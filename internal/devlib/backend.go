// Package devlib implements the paper's vGPU device library (§4.5): the
// per-node backend daemon, which keeps the node's container list and one
// sharing.Strategy per device, and the per-container frontend that intercepts
// CUDA calls and blocks kernel launches until the strategy grants a valid
// lease.
//
// Under the default strategy (sharing.Token, the paper's policy) the device
// guarantees each container's gpu_request (minimum usage share), caps it at
// gpu_limit (maximum share), and elastically distributes residual capacity —
// usage being measured as token-hold time within a sliding window. The
// frontend additionally enforces the container's gpu_mem share by failing
// allocations beyond it with an out-of-memory error.
package devlib

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Config parameterizes the device library. Zero values take defaults.
type Config struct {
	// Quota is the token validity period: how long a container may hold the
	// GPU before re-acquiring (paper default 100 ms; ablated in Figure 7).
	Quota time.Duration
	// Obs is the telemetry runtime strategies and frontends record against
	// (token grants, wait-latency histogram, throttle events). Nil disables
	// instrumentation.
	Obs *obs.Runtime
	// Mode selects the node's default sharing strategy ("" = token). Pods
	// may override it per sharePod via spec.sharing_mode, but a device runs
	// exactly one strategy: the first client's mode wins and conflicting
	// modes fail at library-hook time.
	Mode sharing.Mode
}

// DefaultQuota is the token validity period when Config.Quota is zero.
const DefaultQuota = 100 * time.Millisecond

const (
	// window is the sliding window over which the token policy measures
	// usage rates.
	window = 10 * time.Second
	// grace is the frontend's inactivity grace: after a kernel completes,
	// the token is voluntarily released if no further kernel is launched
	// within grace, so bursty (inference) workloads do not hog the device
	// between requests.
	grace = 2 * time.Millisecond
	// replicas is the number of logical GPUs each physical device advertises
	// under the replica strategy (the NVIDIA time-slicing plugin's common
	// default).
	replicas = 2
)

// handoff is the cost of a token exchange (queue pop, IPC, pipeline warm-up);
// it is what makes small quotas expensive. Sub-millisecond: the real backend
// hands the token over a local socket, and fine-grained kernel interleaving
// between bursty tenants (Fig 12's 1.5× B+B slowdown) depends on this being
// cheap.
const handoff = 500 * time.Microsecond

func (c Config) withDefaults() Config {
	if c.Quota <= 0 {
		c.Quota = DefaultQuota
	}
	if c.Mode == "" {
		c.Mode = sharing.ModeToken
	}
	return c
}

// Backend is the per-node daemon: one sharing strategy per device UUID
// (one token per device in the default mode, §4.5), and the container list
// DevMgr files each bound pod's share and mode on before creating the pod.
type Backend struct {
	env        *sim.Env
	cfg        Config
	strategies map[string]sharing.Strategy
	containers map[string]entry // bound pod name → what DevMgr filed
}

// entry is one pod on the container list.
type entry struct {
	share Share
	mode  sharing.Mode
}

// NewBackend creates a node backend.
func NewBackend(env *sim.Env, cfg Config) *Backend {
	return &Backend{
		env:        env,
		cfg:        cfg.withDefaults(),
		strategies: make(map[string]sharing.Strategy),
		containers: make(map[string]entry),
	}
}

// File puts pod on the container list with its share and mode ("" = the
// node default), replacing an earlier entry.
func (b *Backend) File(pod string, share Share, mode sharing.Mode) {
	b.containers[pod] = entry{share, mode}
}

// Unfile takes pod off the container list.
func (b *Backend) Unfile(pod string) { delete(b.containers, pod) }

// Frontend starts client, a container of pod, on base's device with pod's
// share and mode from the container list. A device serves one mode: a pod
// co-placed with tenants of another fails, its container only.
func (b *Backend) Frontend(base cuda.API, pod, client string) (*Frontend, error) {
	e, ok := b.containers[pod]
	if !ok {
		return nil, fmt.Errorf("devlib: pod %s is not on the node's container list", pod)
	}
	strat, err := b.StrategyFor(base.Device().UUID, e.mode)
	if err != nil {
		return nil, err
	}
	return NewFrontendWith(base, strat, client, e.share, b.cfg)
}

// ContainerList returns the pods on the container list, sorted.
func (b *Backend) ContainerList() []string { return slices.Sorted(maps.Keys(b.containers)) }

// StrategyOf returns the device's already-instantiated strategy, or nil
// when no client has reached the device yet. Read paths (usage sampling,
// invariant checks) use it: StrategyFor would pin the device's mode.
func (b *Backend) StrategyOf(uuid string) sharing.Strategy { return b.strategies[uuid] }

// Devices returns the UUIDs of the devices with an instantiated strategy,
// sorted, for fault injection and leak-checking invariants.
func (b *Backend) Devices() []string {
	return slices.Sorted(maps.Keys(b.strategies))
}

// StrategyFor returns the device's strategy, creating it with the given
// mode ("" = backend default) on first use. A device runs exactly one
// strategy: once created, requesting a different mode is an error — the
// scheduler should keep tenants of different modes off one device (the
// exclusion-label mechanism segregates them).
func (b *Backend) StrategyFor(uuid string, mode sharing.Mode) (sharing.Strategy, error) {
	if mode == "" {
		mode = b.cfg.Mode
	}
	if s, ok := b.strategies[uuid]; ok {
		if s.Mode() != mode {
			return nil, fmt.Errorf("devlib: device %s already shared in %q mode, cannot serve %q", uuid, s.Mode(), mode)
		}
		return s, nil
	}
	var s sharing.Strategy
	switch mode {
	case sharing.ModeMPS:
		s = sharing.NewMPS(b.env, uuid, b.cfg.Obs)
	case sharing.ModeReplica:
		s = sharing.NewReplica(b.env, uuid, replicas, b.cfg.Quota, b.cfg.Obs)
	case sharing.ModeToken:
		s = sharing.NewToken(b.env, uuid, b.cfg.Quota, window, b.cfg.Obs)
	default:
		return nil, fmt.Errorf("devlib: unknown sharing mode %q", mode)
	}
	b.strategies[uuid] = s
	return s, nil
}

// Config returns the backend's (defaulted) configuration.
func (b *Backend) Config() Config { return b.cfg }
