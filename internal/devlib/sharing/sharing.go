// Package sharing defines the pluggable GPU-sharing policy layer of the
// device library. A Strategy owns one physical device's admission control:
// it registers the device's containers, admits kernel work (possibly
// blocking the caller), and survives the suspend/resume cycle of the vGPU
// pod hosting it. Per-tenant usage is reported through the obs counter
// families, not through the interface.
//
// Three families of policies are provided:
//
//   - token (NewToken, the default and the paper's own policy, implemented
//     here): Gemini-style token-gated time-slicing — exclusive holds,
//     sliding-window usage accounting, gpu_request guarantees and gpu_limit
//     caps.
//   - mps (NewMPS): MPS-style concurrent overlap — kernels from different
//     tenants run simultaneously; gpusim's weighted processor sharing models
//     the SM/compute-fraction split, and isolation is limited (a faulting
//     context can poison co-resident tenants, see
//     gpusim.Device.InjectContextFault).
//   - replica (NewReplica): replica time-slicing — the device advertises N
//     logical GPUs; clients are assigned to them round-robin and each runs
//     plain FIFO quota turns without token usage accounting.
//
// The turn is written once (gate.go): a gate is one FIFO of pending admits
// with at most one holder per quota, Token embeds one and picks among its
// queue by the paper's three steps, Replica keeps one per logical GPU and
// picks the oldest. The registration table all three share is the roster.
//
// Strategy implementations must stay below the control plane: they may not
// import kube/apiserver or kube/store (enforced by tools/detvet) — a policy
// holding an apiserver handle could bypass DevMgr's reconciliation.
package sharing

import (
	"errors"
	"fmt"
	"time"

	"kubeshare/internal/sim"
)

// Mode names a sharing policy. The empty string selects the default
// (token).
type Mode string

// Sharing modes. Figure 18's memory-quantity arm is not a mode of its own:
// it is token gating under sharePods that ask for gpu_mem_bytes.
const (
	ModeToken   Mode = "token"
	ModeMPS     Mode = "mps"
	ModeReplica Mode = "replica"
)

// ParseMode validates a sharing_mode string ("" is the default, token).
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeToken:
		return ModeToken, nil
	case ModeMPS:
		return ModeMPS, nil
	case ModeReplica:
		return ModeReplica, nil
	}
	return "", fmt.Errorf("sharing: unknown sharing_mode %q (want token, mps or replica)", s)
}

// ErrDown is returned by strategy operations while the strategy is
// suspended — the vGPU pod hosting the device daemon died and its
// replacement has not come up yet. Frontends treat it as transient and
// reconnect with bounded backoff.
var ErrDown = errors.New("sharing: strategy suspended")

// Resources is one client's demand, the values from the SharePodSpec.
type Resources struct {
	// Request is the guaranteed minimum compute share (gpu_request).
	Request float64
	// Limit is the maximum compute share (gpu_limit), already defaulted to
	// Request when the spec left it unset.
	Limit float64
	// MemFraction is the fractional device-memory share (gpu_mem).
	MemFraction float64
	// MemBytes is the absolute device-memory request (gpu_mem_bytes,
	// KAI-style); 0 means the fractional form is in use.
	MemBytes int64
}

// Lease is an admission grant. Gated leases expire (time-slicing turns);
// ungated leases stay valid until the strategy is suspended or the client
// unregisters (concurrent overlap).
type Lease struct {
	ExpiresAt time.Duration
	Seq       uint64
	Gated     bool
}

// Valid reports whether the lease still admits kernel work at time now.
func (l Lease) Valid(now time.Duration) bool {
	return l.Seq != 0 && (!l.Gated || now < l.ExpiresAt)
}

// Stats is a point-in-time snapshot of a strategy, for dashboards and
// debugging. Field meanings follow the token implementation; overlap
// strategies leave Holder empty and count admissions as Handoffs.
type Stats struct {
	// Holder is the client currently holding the (exclusive) grant
	// ("" when free or when the strategy admits concurrently).
	Holder string
	// QueueDepth is the number of pending admissions.
	QueueDepth int
	// Clients is the number of registered containers.
	Clients int
	// Handoffs is the total lease grants so far.
	Handoffs int64
}

// Strategy is one device's sharing policy. All methods run on the
// simulation goroutine; Admit may block the calling process.
type Strategy interface {
	// Mode names the policy.
	Mode() Mode
	// Gated reports whether leases expire and must be re-admitted (time
	// slicing). Frontends only pay handoff costs, arm grace timers and
	// release work-conservingly under a gated strategy.
	Gated() bool

	// Register adds a container with its resource demand.
	Register(id string, res Resources) error
	// Unregister removes a container; pending admissions are abandoned and
	// held grants reclaimed. Safe for unknown ids.
	Unregister(id string)
	// SetTenant attributes id's usage to tenant (the owning sharePod).
	SetTenant(id, tenant string)
	// Registered reports whether id is a known client.
	Registered(id string) bool
	// Clients returns the number of registered clients.
	Clients() int

	// Admit blocks p until id may run kernel work and returns the lease.
	Admit(p *sim.Proc, id string) (Lease, error)
	// Release voluntarily returns a gated lease; stale leases are ignored.
	Release(id string, l Lease)
	// Waiting returns how many clients id would keep waiting by holding on
	// to its lease — the frontend releases work-conservingly when > 0.
	Waiting(id string) int

	// Suspend models the death of the vGPU pod hosting the strategy:
	// pending admissions fail, leases are invalidated and registrations
	// dropped. Resume brings it back (clients re-register on reconnect);
	// Down reports the suspended state.
	Suspend()
	Resume()
	Down() bool

	// UsageRate returns id's measured usage share at the current instant
	// (0 when the strategy does not meter usage).
	UsageRate(id string) float64
	// Stats returns a point-in-time snapshot.
	Stats() Stats
}
