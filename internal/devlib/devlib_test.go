package devlib

import (
	"errors"
	"math"
	"testing"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/gpusim"
	"kubeshare/internal/sim"
)

// rig is a single-device test bench: one backend, the device's strategy
// from its registry, and frontends opened against it.
type rig struct {
	env   *sim.Env
	dev   *gpusim.Device
	b     *Backend
	strat sharing.Strategy
}

// newRig builds a token-mode rig (the paper's policy).
func newRig(cfg Config) *rig { return newRigOn(gpusim.Config{NodeName: "n"}, cfg, sharing.ModeToken) }

func newRigOn(dev gpusim.Config, cfg Config, mode sharing.Mode) *rig {
	env := sim.NewEnv()
	r := &rig{env: env, dev: gpusim.NewDevice(env, dev), b: NewBackend(env, cfg)}
	strat, err := r.b.StrategyFor(r.dev.UUID(), mode)
	if err != nil {
		panic(err)
	}
	r.strat = strat
	return r
}

// addClient opens a frontend for a new container on the rig device.
func (r *rig) addClient(t *testing.T, id string, share Share) *Frontend {
	t.Helper()
	f, err := NewFrontendWith(cuda.Open(r.dev, id), r.strat, id, share, r.b.Config())
	if err != nil {
		t.Fatalf("frontend %s: %v", id, err)
	}
	return f
}

// trainLoop runs a full-duty training-style app: back-to-back kernels with a
// tiny host gap, until stop fires. It returns a counter of completed
// kernels via the pointer.
func trainLoop(f *Frontend, kernel, hostGap time.Duration, done *int) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for !p.Killed() {
			if err := f.LaunchKernel(p, kernel); err != nil {
				return
			}
			*done++
			if hostGap > 0 {
				p.Sleep(hostGap)
			}
		}
	}
}

func TestSingleClientThrottledAtLimit(t *testing.T) {
	r := newRig(Config{})
	f := r.addClient(t, "a", Share{Request: 0.3, Limit: 0.6, Memory: 0.5})
	n := 0
	p := r.env.Go("a", trainLoop(f, 10*time.Millisecond, 0, &n))
	r.env.RunUntil(60 * time.Second)
	p.Kill(nil)
	r.env.Run()
	// Device busy fraction over the run must sit near the 0.6 limit.
	util := r.dev.BusyTime().Seconds() / 60.0
	if math.Abs(util-0.6) > 0.05 {
		t.Fatalf("utilization %.3f, want ≈0.6 (gpu_limit)", util)
	}
}

func TestUnlimitedClientUsesWholeGPU(t *testing.T) {
	r := newRig(Config{})
	f := r.addClient(t, "a", Share{Request: 0.3, Limit: 1.0, Memory: 0.5})
	n := 0
	p := r.env.Go("a", trainLoop(f, 10*time.Millisecond, 0, &n))
	r.env.RunUntil(30 * time.Second)
	p.Kill(nil)
	r.env.Run()
	util := r.dev.BusyTime().Seconds() / 30.0
	if util < 0.9 {
		t.Fatalf("utilization %.3f, want >0.9 with no competitor", util)
	}
}

func TestTwoClientsElasticFairSplit(t *testing.T) {
	// Fig 6 middle phase: A(req .3, lim .6) + B(req .4, lim .6) on one GPU
	// → residual split gives each ≈0.5.
	r := newRig(Config{})
	fa := r.addClient(t, "a", Share{Request: 0.3, Limit: 0.6, Memory: 0.3})
	fb := r.addClient(t, "b", Share{Request: 0.4, Limit: 0.6, Memory: 0.3})
	na, nb := 0, 0
	pa := r.env.Go("a", trainLoop(fa, 10*time.Millisecond, 0, &na))
	pb := r.env.Go("b", trainLoop(fb, 10*time.Millisecond, 0, &nb))
	r.env.RunUntil(60 * time.Second)
	ua, ub := r.strat.UsageRate("a"), r.strat.UsageRate("b")
	pa.Kill(nil)
	pb.Kill(nil)
	r.env.Run()
	if math.Abs(ua-0.5) > 0.07 || math.Abs(ub-0.5) > 0.07 {
		t.Fatalf("usage a=%.3f b=%.3f, want ≈0.5 each", ua, ub)
	}
}

func TestThreeClientsGuaranteedRequests(t *testing.T) {
	// Fig 6 final phase: requests sum to 1.0; every client must obtain at
	// least its gpu_request (minus measurement slack).
	r := newRig(Config{})
	shares := map[string]Share{
		"a": {Request: 0.3, Limit: 0.6, Memory: 0.3},
		"b": {Request: 0.4, Limit: 0.6, Memory: 0.3},
		"c": {Request: 0.3, Limit: 0.5, Memory: 0.3},
	}
	var procs []*sim.Proc
	for _, id := range []string{"a", "b", "c"} {
		f := r.addClient(t, id, shares[id])
		n := 0
		procs = append(procs, r.env.Go(id, trainLoop(f, 10*time.Millisecond, 0, &n)))
	}
	r.env.RunUntil(60 * time.Second)
	for id, s := range shares {
		u := r.strat.UsageRate(id)
		if u < s.Request-0.06 {
			t.Errorf("client %s usage %.3f below gpu_request %.2f", id, u, s.Request)
		}
		if u > s.Limit+0.03 {
			t.Errorf("client %s usage %.3f above gpu_limit %.2f", id, u, s.Limit)
		}
	}
	for _, p := range procs {
		p.Kill(nil)
	}
	r.env.Run()
}

func TestResidualRedistributedAfterDeparture(t *testing.T) {
	// Fig 6 tail: when a client leaves, its capacity flows to the others.
	r := newRig(Config{})
	fa := r.addClient(t, "a", Share{Request: 0.3, Limit: 0.6, Memory: 0.3})
	fc := r.addClient(t, "c", Share{Request: 0.3, Limit: 0.5, Memory: 0.3})
	na, nc := 0, 0
	pa := r.env.Go("a", trainLoop(fa, 10*time.Millisecond, 0, &na))
	pc := r.env.Go("c", trainLoop(fc, 10*time.Millisecond, 0, &nc))
	r.env.RunUntil(40 * time.Second)
	// c departs: a should climb from 0.5 toward its 0.6 limit.
	pc.Kill(nil)
	r.env.RunUntil(41 * time.Second)
	fcClose := r.env.Go("close-c", func(p *sim.Proc) { fc.Close(p) })
	_ = fcClose
	r.env.RunUntil(80 * time.Second)
	ua := r.strat.UsageRate("a")
	pa.Kill(nil)
	r.env.Run()
	if math.Abs(ua-0.6) > 0.05 {
		t.Fatalf("after departure usage a=%.3f, want ≈0.6", ua)
	}
}

func TestTokenExclusive(t *testing.T) {
	// The device never runs kernels from two holders at once when kernels
	// fit within the quota: active kernel count stays ≤ 1.
	r := newRig(Config{})
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	violations := 0
	r.env.Go("monitor", func(p *sim.Proc) {
		for !p.Killed() {
			p.Sleep(time.Millisecond)
			if r.dev.ActiveKernels() > 1 {
				violations++
			}
		}
	})
	na, nb := 0, 0
	r.env.Go("a", trainLoop(fa, 5*time.Millisecond, 0, &na))
	r.env.Go("b", trainLoop(fb, 5*time.Millisecond, 0, &nb))
	r.env.RunUntil(10 * time.Second)
	if violations > 0 {
		t.Fatalf("%d instants with >1 active kernel", violations)
	}
	if na == 0 || nb == 0 {
		t.Fatalf("progress a=%d b=%d", na, nb)
	}
}

func TestMemShareEnforced(t *testing.T) {
	r := newRig(Config{})
	f := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.25})
	capBytes := f.Device().MemoryBytes
	if capBytes != r.dev.MemoryBytes()/4 {
		t.Fatalf("visible capacity %d, want quarter of %d", capBytes, r.dev.MemoryBytes())
	}
	r.env.Go("a", func(p *sim.Proc) {
		if _, err := f.MemAlloc(p, capBytes); err != nil {
			t.Errorf("alloc at share: %v", err)
		}
		if _, err := f.MemAlloc(p, 1); !errors.Is(err, cuda.ErrOutOfMemory) {
			t.Errorf("overshare alloc err = %v, want OOM", err)
		}
	})
	r.env.Run()
}

func TestMemSharesIndependent(t *testing.T) {
	r := newRig(Config{})
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.5})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.5})
	r.env.Go("t", func(p *sim.Proc) {
		if _, err := fa.MemAlloc(p, fa.Device().MemoryBytes); err != nil {
			t.Errorf("a alloc: %v", err)
		}
		if _, err := fb.MemAlloc(p, fb.Device().MemoryBytes); err != nil {
			t.Errorf("b alloc: %v", err)
		}
	})
	r.env.Run()
}

func TestQuotaOverheadSmall(t *testing.T) {
	// Fig 7: the slowdown from token exchange must stay under ~5% even at a
	// 30ms quota for a solo full-duty job.
	baselineKernels := func(quota time.Duration, useLib bool) int {
		env := sim.NewEnv()
		dev := gpusim.NewDevice(env, gpusim.Config{NodeName: "n"})
		var api cuda.API = cuda.Open(dev, "a")
		if useLib {
			b := NewBackend(env, Config{Quota: quota})
			strat, err := b.StrategyFor(dev.UUID(), sharing.ModeToken)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFrontendWith(api, strat, "a", Share{Request: 1, Limit: 1, Memory: 1}, b.Config())
			if err != nil {
				t.Fatal(err)
			}
			api = f
		}
		n := 0
		pr := env.Go("a", func(p *sim.Proc) {
			for !p.Killed() {
				if err := api.LaunchKernel(p, 10*time.Millisecond); err != nil {
					return
				}
				n++
			}
		})
		env.RunUntil(30 * time.Second)
		pr.Kill(nil)
		env.Run()
		return n
	}
	base := baselineKernels(0, false)
	for _, quota := range []time.Duration{30 * time.Millisecond, 100 * time.Millisecond} {
		got := baselineKernels(quota, true)
		slowdown := 1 - float64(got)/float64(base)
		if slowdown > 0.06 {
			t.Errorf("quota %v: slowdown %.3f > 6%%", quota, slowdown)
		}
		if slowdown < 0 {
			t.Errorf("quota %v: negative slowdown %.3f", quota, slowdown)
		}
	}
}

func TestSmallerQuotaMoreHandoffs(t *testing.T) {
	// A solo continuous client re-acquires once per quota expiry (nobody is
	// waiting, so the work-conserving release never triggers): handoff
	// count scales inversely with the quota.
	run := func(quota time.Duration) int64 {
		r := newRig(Config{Quota: quota})
		fa := r.addClient(t, "a", Share{Request: 1, Limit: 1, Memory: 0.3})
		na := 0
		r.env.Go("a", trainLoop(fa, 5*time.Millisecond, 0, &na))
		r.env.RunUntil(10 * time.Second)
		return r.strat.Stats().Handoffs
	}
	small, large := run(30*time.Millisecond), run(160*time.Millisecond)
	if small <= 2*large {
		t.Fatalf("handoffs: quota30=%d quota160=%d, want ≫ at smaller quota", small, large)
	}
}

func TestContendedHandoffsPerKernel(t *testing.T) {
	// With a competitor queued, the holder hands over after each kernel
	// (work conservation), independent of the quota.
	r := newRig(Config{})
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	na, nb := 0, 0
	r.env.Go("a", trainLoop(fa, 5*time.Millisecond, 0, &na))
	r.env.Go("b", trainLoop(fb, 5*time.Millisecond, 0, &nb))
	r.env.RunUntil(10 * time.Second)
	if got := r.strat.Stats().Handoffs; got < int64(na+nb)/2 {
		t.Fatalf("handoffs %d far below kernel count %d; contended token not interleaving", got, na+nb)
	}
}

func TestTokenResidualEqualizesShares(t *testing.T) {
	// Step 3 of the paper's policy: one big-kernel client against two
	// small-kernel ones, all far above their requests. With three tenants
	// there are always two waiters to arbitrate between, and lowest usage
	// first equalizes time shares (≈1/3 each) rather than turns, which would
	// hand the big-kernel client 20/(20+5+5) ≈ 0.67 of the device.
	r := newRig(Config{})
	fb := r.addClient(t, "big", Share{Request: 0.05, Limit: 1, Memory: 0.2})
	fs1 := r.addClient(t, "small1", Share{Request: 0.05, Limit: 1, Memory: 0.2})
	fs2 := r.addClient(t, "small2", Share{Request: 0.05, Limit: 1, Memory: 0.2})
	var nb, n1, n2 int
	r.env.Go("big", trainLoop(fb, 20*time.Millisecond, 0, &nb))
	r.env.Go("small1", trainLoop(fs1, 5*time.Millisecond, 0, &n1))
	r.env.Go("small2", trainLoop(fs2, 5*time.Millisecond, 0, &n2))
	r.env.RunUntil(30 * time.Second)
	big, small := r.strat.UsageRate("big"), r.strat.UsageRate("small1")
	if math.Abs(big-small) > 0.12 {
		t.Fatalf("lowest-usage policy unbalanced: big %.3f vs small %.3f", big, small)
	}
}

func TestGraceReleasesIdleToken(t *testing.T) {
	// A bursty client must not hold the token between bursts: a competing
	// full-duty client gets the gaps.
	r := newRig(Config{})
	fa := r.addClient(t, "bursty", Share{Request: 0.1, Limit: 1, Memory: 0.3})
	fb := r.addClient(t, "greedy", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	nb := 0
	r.env.Go("bursty", func(p *sim.Proc) {
		for !p.Killed() {
			if err := fa.LaunchKernel(p, 2*time.Millisecond); err != nil {
				return
			}
			p.Sleep(50 * time.Millisecond) // long idle between requests
		}
	})
	r.env.Go("greedy", trainLoop(fb, 10*time.Millisecond, 0, &nb))
	r.env.RunUntil(20 * time.Second)
	ug := r.strat.UsageRate("greedy")
	if ug < 0.8 {
		t.Fatalf("greedy usage %.3f; bursty client is hogging the token", ug)
	}
	ub := r.strat.UsageRate("bursty")
	if ub < 0.02 {
		t.Fatalf("bursty usage %.3f; starved", ub)
	}
}

func TestUnregisterWhileHoldingReleases(t *testing.T) {
	r := newRig(Config{})
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	nb := 0
	r.env.Go("a", func(p *sim.Proc) {
		fa.LaunchKernel(p, 5*time.Millisecond)
		fa.Close(p) // drops registration mid-everything
	})
	r.env.Go("b", trainLoop(fb, 5*time.Millisecond, 0, &nb))
	r.env.RunUntil(5 * time.Second)
	if nb == 0 {
		t.Fatal("b starved after a closed")
	}
	if r.strat.Clients() != 1 {
		t.Fatalf("clients = %d, want 1", r.strat.Clients())
	}
}

func TestRegisterValidation(t *testing.T) {
	r := newRig(Config{})
	bad := []Share{
		{Request: -0.1, Limit: 0.5, Memory: 0.5},
		{Request: 0.5, Limit: 1.5, Memory: 0.5},
		{Request: 0.6, Limit: 0.5, Memory: 0.5},
		{Request: 0.5, Limit: 0.5, Memory: 0},
		{Request: 0.5, Limit: 0.5, Memory: 1.5},
	}
	for i, s := range bad {
		if _, err := NewFrontendWith(cuda.Open(r.dev, "x"), r.strat, "x", s, r.b.Config()); err == nil {
			t.Errorf("case %d: invalid share %+v accepted", i, s)
		}
	}
	dup := sharing.Resources{Request: 0.1, Limit: 0.2}
	if err := r.strat.Register("dup", dup); err != nil {
		t.Fatal(err)
	}
	if err := r.strat.Register("dup", dup); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestAcquireUnregisteredErrors(t *testing.T) {
	r := newRig(Config{})
	r.env.Go("t", func(p *sim.Proc) {
		if _, err := r.strat.Admit(p, "ghost"); err == nil {
			t.Error("admit by ghost succeeded")
		}
	})
	r.env.Run()
}

func TestUsageRateUnknownClient(t *testing.T) {
	r := newRig(Config{})
	if r.strat.UsageRate("ghost") != 0 {
		t.Fatal("unknown client has nonzero usage")
	}
}

func TestStatsSnapshot(t *testing.T) {
	r := newRig(Config{})
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	na, nb := 0, 0
	r.env.Go("a", trainLoop(fa, 50*time.Millisecond, 0, &na))
	r.env.Go("b", trainLoop(fb, 50*time.Millisecond, 0, &nb))
	r.env.RunUntil(125 * time.Millisecond)
	st := r.strat.Stats()
	if st.Clients != 2 {
		t.Fatalf("clients = %d", st.Clients)
	}
	if st.Holder == "" {
		t.Fatal("no holder mid-contention")
	}
	if st.Handoffs == 0 {
		t.Fatal("no handoffs recorded")
	}
	if st.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want the other tenant waiting", st.QueueDepth)
	}
}

func TestShareEffectiveLimitDefaults(t *testing.T) {
	s := Share{Request: 0.4, Memory: 0.5}
	if s.EffectiveLimit() != 0.4 {
		t.Fatalf("effective limit = %v", s.EffectiveLimit())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("share with defaulted limit rejected: %v", err)
	}
}

// TestShareValidateRejectsNonFinite: NaN and ±Inf in any fractional field
// are refused — range checks written `x < 0 || x > 1` are false for NaN,
// and a NaN gpu_mem would make the memory cap int64(NaN·total).
func TestShareValidateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, s := range map[string]Share{
			"gpu_request": {Request: bad, Limit: 0.5, Memory: 0.5},
			"gpu_limit":   {Request: 0.5, Limit: bad, Memory: 0.5},
			"gpu_mem":     {Request: 0.5, Limit: 0.5, Memory: bad},
		} {
			if err := s.Validate(); err == nil {
				t.Errorf("%s %v accepted", field, bad)
			}
		}
	}
}

func TestAsyncStreamBatchesUnderOneToken(t *testing.T) {
	r := newRig(Config{})
	f := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	r.env.Go("a", func(p *sim.Proc) {
		// A burst of async kernels then one sync: a single token hold
		// (plus possibly one quota renewal) covers the whole stream.
		for i := 0; i < 8; i++ {
			if _, err := f.LaunchKernelAsync(p, 5*time.Millisecond); err != nil {
				t.Errorf("async: %v", err)
				return
			}
		}
		if err := f.Synchronize(p); err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	r.env.RunUntil(5 * time.Second)
	if h := r.strat.Stats().Handoffs; h != 1 {
		t.Fatalf("handoffs = %d, want 1 (stream batched under one hold)", h)
	}
}

func TestAsyncContendedStreamsShareFairly(t *testing.T) {
	r := newRig(Config{})
	fa := r.addClient(t, "a", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	fb := r.addClient(t, "b", Share{Request: 0.5, Limit: 1, Memory: 0.3})
	loop := func(f *Frontend) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for !p.Killed() {
				for i := 0; i < 4; i++ {
					if _, err := f.LaunchKernelAsync(p, 5*time.Millisecond); err != nil {
						return
					}
				}
				if err := f.Synchronize(p); err != nil {
					return
				}
			}
		}
	}
	r.env.Go("a", loop(fa))
	r.env.Go("b", loop(fb))
	r.env.RunUntil(20 * time.Second)
	ua, ub := r.strat.UsageRate("a"), r.strat.UsageRate("b")
	if math.Abs(ua-ub) > 0.15 {
		t.Fatalf("streamed tenants unbalanced: %.3f vs %.3f", ua, ub)
	}
	if ua+ub < 0.85 {
		t.Fatalf("device underused with streams: %.3f total", ua+ub)
	}
}
