package gpusim

import (
	"errors"
	"testing"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

func TestWeightedProcessorSharing(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	heavy := dev.OpenContext("heavy")
	light := dev.OpenContext("light")
	heavy.SetComputeWeight(0.75)
	light.SetComputeWeight(0.25)
	var th, tl time.Duration
	env.Go("h", func(p *sim.Proc) { heavy.Launch(p, 30*time.Millisecond); th = env.Now() })
	env.Go("l", func(p *sim.Proc) { light.Launch(p, 30*time.Millisecond); tl = env.Now() })
	env.Run()
	// While both run, heavy gets 75% of the device: its 30ms of work is done
	// at 40ms. Light has 10ms of work done by then; the remaining 20ms runs
	// at full rate, finishing at 60ms.
	// Completion times round monotonically to the nanosecond grid, so allow
	// a microsecond of slack.
	if d := (th - 40*time.Millisecond).Abs(); d > time.Microsecond {
		t.Fatalf("heavy finished at %v, want ≈40ms (75%% share)", th)
	}
	if d := (tl - 60*time.Millisecond).Abs(); d > time.Microsecond {
		t.Fatalf("light finished at %v, want ≈60ms (25%% share, then alone)", tl)
	}
}

func TestWeightedSharingUnitWeightsMatchUnweighted(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	c1 := dev.OpenContext("c1")
	c2 := dev.OpenContext("c2")
	c1.SetComputeWeight(1)
	c2.SetComputeWeight(1)
	var t1, t2 time.Duration
	env.Go("a", func(p *sim.Proc) { c1.Launch(p, 100*time.Millisecond); t1 = env.Now() })
	env.Go("b", func(p *sim.Proc) { c2.Launch(p, 100*time.Millisecond); t2 = env.Now() })
	env.Run()
	// Explicit unit weights must reproduce the legacy equal split exactly —
	// the bit-identity the token strategy's goldens rely on.
	if t1 != 200*time.Millisecond || t2 != 200*time.Millisecond {
		t.Fatalf("finish times %v %v, want 200ms each", t1, t2)
	}
}

func TestContextMemLimitOOM(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	ctx := dev.OpenContext("c1")
	ctx.SetMemLimit(1 << 20)
	if err := ctx.Alloc(2 << 20); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc past context limit: %v, want ErrOutOfMemory", err)
	}
	if err := ctx.Alloc(1 << 20); err != nil {
		t.Fatalf("alloc within limit: %v", err)
	}
	if err := ctx.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc at full limit: %v, want ErrOutOfMemory", err)
	}
	// The device itself has room to spare: the limit is per-context.
	other := dev.OpenContext("c2")
	if err := other.Alloc(1 << 30); err != nil {
		t.Fatalf("unlimited sibling alloc: %v", err)
	}
}

func TestContextFaultPoisonsCoResident(t *testing.T) {
	env := sim.NewEnv()
	rt := obs.New(env)
	dev := NewDevice(env, Config{Index: 0, NodeName: "n0", Obs: rt})
	victim := dev.OpenContext("victim")
	neighbor := dev.OpenContext("neighbor")
	idle := dev.OpenContext("idle")
	errs := map[string]error{}
	env.Go("v", func(p *sim.Proc) { errs["victim"] = victim.Launch(p, 50*time.Millisecond) })
	env.Go("n", func(p *sim.Proc) { errs["neighbor"] = neighbor.Launch(p, 50*time.Millisecond) })
	env.Go("fault", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		dev.InjectContextFault(victim)
	})
	env.Run()
	// The victim had kernels in flight, so every context with co-resident
	// kernels dies with it; the idle context and the device survive.
	for _, who := range []string{"victim", "neighbor"} {
		if !errors.Is(errs[who], ErrDeviceFault) {
			t.Fatalf("%s kernel: %v, want ErrDeviceFault", who, errs[who])
		}
	}
	if !victim.Faulted() || !neighbor.Faulted() {
		t.Fatal("co-resident contexts must be poisoned")
	}
	if idle.Faulted() || dev.Faulted() {
		t.Fatal("idle context and device must be spared")
	}
	events := rt.Events()
	if len(events) != 1 || events[0].Reason != "ContextFault" ||
		events[0].Message != "Xid fault in context victim: 2 contexts poisoned" {
		t.Fatalf("events %+v, want one ContextFault naming the victim and 2 poisoned contexts", events)
	}
	var after error
	env.Go("idle", func(p *sim.Proc) { after = idle.Launch(p, 5*time.Millisecond) })
	env.Run()
	if after != nil {
		t.Fatalf("launch on spared context after fault: %v", after)
	}
}

func TestContextFaultIdleVictimOnly(t *testing.T) {
	env := sim.NewEnv()
	dev := newDev(env)
	victim := dev.OpenContext("victim")
	bystander := dev.OpenContext("bystander")
	var byErr error
	env.Go("b", func(p *sim.Proc) { byErr = bystander.Launch(p, 50*time.Millisecond) })
	env.Go("fault", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		// The victim has nothing in flight: the blast radius is just the
		// victim — the gated-sharing case, where at most one tenant's
		// kernels are resident at a time.
		dev.InjectContextFault(victim)
	})
	env.Run()
	if byErr != nil {
		t.Fatalf("bystander kernel: %v, want success (victim was idle)", byErr)
	}
	if !victim.Faulted() || bystander.Faulted() {
		t.Fatal("want victim poisoned, bystander spared")
	}
}
