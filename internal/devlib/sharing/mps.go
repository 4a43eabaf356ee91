package sharing

import (
	"fmt"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// MPS is the concurrent-overlap strategy: every registered client is
// admitted immediately with an ungated lease, so kernels from different
// tenants run simultaneously on the device. The compute split is modeled by
// gpusim's weighted processor sharing — the frontend sets each context's
// compute weight to the container's gpu_request, mirroring MPS active
// thread percentages — and isolation is limited: a fault in one context
// poisons co-resident tenants (gpusim.Device.InjectContextFault).
type MPS struct {
	roster
	leases uint64 // leases granted so far: the latest lease's Seq, and Stats.Handoffs
	admits *obs.Counter
}

// NewMPS creates the overlap strategy for one device. Nobody waits for
// admission, so env is unused. rt may be nil (telemetry disabled).
func NewMPS(env *sim.Env, uuid string, rt *obs.Runtime) *MPS {
	return &MPS{
		roster: newRoster(uuid),
		admits: rt.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With(uuid, string(ModeMPS)),
	}
}

// Mode returns ModeMPS.
func (m *MPS) Mode() Mode { return ModeMPS }

// Gated reports false: leases never expire, kernels overlap.
func (m *MPS) Gated() bool { return false }

// Register adds a client. Requests are not summed or capped here —
// KubeShare-Sched keeps the per-device sum ≤ 1, and the weighted
// processor-sharing model degrades proportionally when it does not.
func (m *MPS) Register(id string, res Resources) error {
	if err := m.check(id); err != nil {
		return err
	}
	if !(res.Request >= 0 && res.Request <= 1) { // NaN fails too
		return fmt.Errorf("sharing: client %q request %v out of range", id, res.Request)
	}
	m.add(id)
	return nil
}

// Unregister removes a client; its ungated lease dies with it.
func (m *MPS) Unregister(id string) { m.remove(id) }

// Admit grants an ungated lease immediately — overlap means nobody waits
// for admission; contention is resolved on the device by weighted
// processor sharing.
func (m *MPS) Admit(p *sim.Proc, id string) (Lease, error) {
	if _, err := m.admitting(id); err != nil {
		return Lease{}, err
	}
	m.leases++
	m.admits.Inc()
	return Lease{Seq: m.leases, Gated: false}, nil
}

// Release is a no-op: ungated leases are reclaimed by Unregister/Suspend.
func (m *MPS) Release(id string, l Lease) {}

// Waiting returns 0: admission never queues.
func (m *MPS) Waiting(id string) int { return 0 }

// Suspend drops all registrations and fails subsequent admissions with
// ErrDown until Resume, mirroring the token strategy's crash semantics.
// Outstanding ungated leases stay valid: with no gate in the data path, a
// daemon outage does not stop already-admitted contexts (real MPS behaves
// the same way — the control daemon dying leaves running contexts alone).
func (m *MPS) Suspend() { m.suspend() }

// UsageRate returns 0: overlap usage is metered at the device
// (gpusim.Context.DeviceTime → kubeshare_sharing_devtime_ns_total), not in
// the strategy.
func (m *MPS) UsageRate(id string) float64 { return 0 }

// Stats snapshots the strategy.
func (m *MPS) Stats() Stats {
	return Stats{Clients: len(m.clients), Handoffs: int64(m.leases)}
}
