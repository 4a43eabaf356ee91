package devlib

import (
	"fmt"
	"testing"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// launchRig is the kernel-launch hot path in isolation: four tenants on one
// device, each launching back-to-back kernels through its frontend, with
// telemetry, trace keys and exemplars on (the most any experiment enables).
// It backs both the allocation pins and BenchmarkFrontendLaunchKernel.
type launchRig struct {
	env      *sim.Env
	procs    []*sim.Proc
	launches int
}

const (
	launchTenants = 4
	launchKernel  = 5 * time.Millisecond
	// launchWarmup outlasts the token manager's usage window, so the usage
	// rings, the kernel's event slabs and every waiter list have reached
	// their steady-state capacity before anything is measured.
	launchWarmup = 2 * DefaultWindow
)

// launchModes are the strategies the launch path is pinned under.
var launchModes = []sharing.Mode{sharing.ModeToken, sharing.ModeReplica, sharing.ModeMPS}

func newLaunchRig(tb testing.TB, mode sharing.Mode) *launchRig {
	tb.Helper()
	env := sim.NewEnv()
	rt := obs.New(env)
	rt.EnableExemplars()
	dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n", Obs: rt})
	b := NewBackend(env, Config{Obs: rt})
	strat, err := b.StrategyFor(dev.UUID(), mode)
	if err != nil {
		tb.Fatalf("strategy %q: %v", mode, err)
	}
	r := &launchRig{env: env}
	for i := 0; i < launchTenants; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		share := Share{Request: 1.0 / launchTenants, Limit: 1, Memory: 1.0 / launchTenants}
		f, err := NewFrontendWith(cuda.Open(dev, id), strat, id, share, b.Config())
		if err != nil {
			tb.Fatalf("frontend %s: %v", id, err)
		}
		f.SetTraceKey("SharePod/" + id)
		r.procs = append(r.procs, env.Go(id, func(p *sim.Proc) {
			for f.LaunchKernel(p, launchKernel) == nil {
				r.launches++
			}
		}))
	}
	tb.Cleanup(func() {
		for _, p := range r.procs {
			p.Kill(nil)
		}
		env.Run()
	})
	env.RunUntil(launchWarmup)
	return r
}

// run advances the simulation by n completed kernel launches.
func (r *launchRig) run(tb testing.TB, n int) {
	for target := r.launches + n; r.launches < target; {
		if !r.env.Step() {
			tb.Fatalf("simulation drained after %d launches", r.launches)
		}
	}
}

// TestLaunchKernelAllocs pins the host cost the launch path was brought
// down to: once warm, Frontend.LaunchKernel → acquireLease → Admit → grant
// → sim.Event hand-off → cuda.Driver → gpusim allocates nothing under any
// strategy — no backoff generator per lease, no trace key per grant, no
// boxed grant, no closure per completion timer. The count is exact over
// 4000 launches (about 200 token leases), not an average.
func TestLaunchKernelAllocs(t *testing.T) {
	for _, mode := range launchModes {
		t.Run(string(mode), func(t *testing.T) {
			r := newLaunchRig(t, mode)
			const launches = 4000
			if allocs := testing.AllocsPerRun(1, func() { r.run(t, launches) }); allocs != 0 {
				t.Fatalf("%v allocations over %d steady-state launches, want 0", allocs, launches)
			}
		})
	}
}

// BenchmarkFrontendLaunchKernel measures one steady-state kernel launch
// through the frontend, per strategy; allocs/op is gated at exactly 0 by
// tools/benchgate.
func BenchmarkFrontendLaunchKernel(b *testing.B) {
	for _, mode := range launchModes {
		b.Run(string(mode), func(b *testing.B) {
			r := newLaunchRig(b, mode)
			b.ReportAllocs()
			b.ResetTimer()
			r.run(b, b.N)
		})
	}
}
