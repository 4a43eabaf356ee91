// Package devlib implements the paper's vGPU device library (§4.5): the
// per-node backend daemon, which keeps one sharing.Strategy per device, and
// the per-container frontend that intercepts CUDA calls and blocks kernel
// launches until the strategy grants a valid lease.
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

	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// Config parameterizes the device library. Zero values take defaults.
type Config struct {
	// Quota is the token validity period: how long a container may hold the
	// GPU before re-acquiring (paper default 100 ms; ablated in Figure 7).
	Quota time.Duration
	// Window is the sliding window over which usage rates are measured.
	Window time.Duration
	// Grace is the frontend's inactivity grace: after a kernel completes,
	// the token is voluntarily released if no further kernel is launched
	// within Grace, so bursty (inference) workloads do not hog the device
	// between requests.
	Grace time.Duration
	// Residual selects how step 3 of the token policy distributes spare
	// capacity among clients that already met their gpu_request (ablation
	// knob; the paper uses lowest-usage-first).
	Residual sharing.ResidualPolicy
	// MemOvercommit enables GPUswap-style memory over-commitment: container
	// memory becomes virtual, and working sets are swapped host↔device at
	// token handoff when they do not all fit (§6 of the paper).
	MemOvercommit bool
	// SwapBandwidth is the host↔device transfer rate used for swapping
	// (defaults to PCIe gen3 x16).
	SwapBandwidth int64
	// Obs is the telemetry runtime strategies and frontends record against
	// (token grants, wait-latency histogram, throttle events). Nil disables
	// instrumentation.
	Obs *obs.Runtime
	// Mode selects the node's default sharing strategy ("" = token). Pods
	// may override it per sharePod via spec.sharing_mode, but a device runs
	// exactly one strategy: the first client's mode wins and conflicting
	// modes fail at library-hook time.
	Mode sharing.Mode
	// Replicas is the number of logical GPUs each physical device
	// advertises under the replica strategy (default DefaultReplicas;
	// ignored by the other modes).
	Replicas int
}

// Defaults (see Config).
const (
	DefaultQuota  = 100 * time.Millisecond
	DefaultWindow = 10 * time.Second
	DefaultGrace  = 2 * time.Millisecond
	// DefaultReplicas is the replica strategy's logical-GPU count per
	// physical device (the NVIDIA time-slicing plugin's common default).
	DefaultReplicas = 2
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
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Grace <= 0 {
		c.Grace = DefaultGrace
	}
	if c.SwapBandwidth <= 0 {
		c.SwapBandwidth = 12 << 30
	}
	if c.Mode == "" {
		c.Mode = sharing.ModeToken
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	return c
}

// Backend is the per-node daemon: one sharing strategy per device UUID
// (one token per device in the default mode, §4.5).
type Backend struct {
	env        *sim.Env
	cfg        Config
	strategies map[string]sharing.Strategy
}

// NewBackend creates a node backend.
func NewBackend(env *sim.Env, cfg Config) *Backend {
	return &Backend{
		env:        env,
		cfg:        cfg.withDefaults(),
		strategies: make(map[string]sharing.Strategy),
	}
}

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
		s = sharing.NewReplica(b.env, uuid, b.cfg.Replicas, b.cfg.Quota, b.cfg.Obs)
	case sharing.ModeToken:
		s = sharing.NewToken(b.env, uuid, b.cfg.Quota, b.cfg.Window, b.cfg.Residual, b.cfg.Obs)
	default:
		return nil, fmt.Errorf("devlib: unknown sharing mode %q", mode)
	}
	b.strategies[uuid] = s
	return s, nil
}

// Config returns the backend's (defaulted) configuration.
func (b *Backend) Config() Config { return b.cfg }
