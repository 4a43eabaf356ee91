package sharing

import (
	"errors"
	"math"
	"testing"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"": ModeToken, "token": ModeToken, "mps": ModeMPS, "replica": ModeReplica,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("nccl"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}

func TestLeaseValidity(t *testing.T) {
	if (Lease{}).Valid(0) {
		t.Fatal("zero lease must be invalid")
	}
	gated := Lease{ExpiresAt: 10 * time.Millisecond, Seq: 1, Gated: true}
	if !gated.Valid(5*time.Millisecond) || gated.Valid(10*time.Millisecond) {
		t.Fatal("gated lease must be valid strictly before expiry only")
	}
	ungated := Lease{Seq: 1}
	if !ungated.Valid(time.Hour) {
		t.Fatal("ungated lease must not expire")
	}
}

func TestMPSAdmitsImmediatelyAndConcurrently(t *testing.T) {
	env := sim.NewEnv()
	m := NewMPS(env, "gpu-0", nil)
	for _, id := range []string{"a", "b", "c"} {
		if err := m.Register(id, Resources{Request: 0.3, Limit: 0.5}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	env.Go("admits", func(p *sim.Proc) {
		start := env.Now()
		for _, id := range []string{"a", "b", "c"} {
			l, err := m.Admit(p, id)
			if err != nil {
				t.Errorf("admit %s: %v", id, err)
			}
			if !l.Valid(env.Now()+time.Hour) || l.Gated {
				t.Errorf("admit %s: lease %+v, want ungated and non-expiring", id, l)
			}
		}
		if env.Now() != start {
			t.Errorf("MPS admission blocked for %v, want immediate", env.Now()-start)
		}
	})
	env.Run()
	if m.Waiting("a") != 0 {
		t.Fatalf("Waiting = %d, want 0 (overlap never queues)", m.Waiting("a"))
	}
	if s := m.Stats(); s.Handoffs != 3 || s.Clients != 3 || s.Holder != "" {
		t.Fatalf("stats %+v, want 3 admits, 3 clients, no exclusive holder", s)
	}
}

func TestMPSRegisterValidation(t *testing.T) {
	env := sim.NewEnv()
	m := NewMPS(env, "gpu-0", nil)
	if err := m.Register("a", Resources{Request: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a", Resources{Request: 0.3}); err == nil {
		t.Fatal("duplicate register accepted")
	}
	if err := m.Register("b", Resources{Request: 1.5}); err == nil {
		t.Fatal("out-of-range request accepted")
	}
}

func TestMPSSuspendDropsRegistrationsButNotLeases(t *testing.T) {
	env := sim.NewEnv()
	m := NewMPS(env, "gpu-0", nil)
	if err := m.Register("a", Resources{Request: 0.5}); err != nil {
		t.Fatal(err)
	}
	var lease Lease
	env.Go("a", func(p *sim.Proc) {
		var err error
		if lease, err = m.Admit(p, "a"); err != nil {
			t.Errorf("admit: %v", err)
		}
		m.Suspend()
		if !m.Down() || m.Registered("a") || m.Clients() != 0 {
			t.Error("suspend must drop registrations and report Down")
		}
		if _, err := m.Admit(p, "a"); !errors.Is(err, ErrDown) {
			t.Errorf("admit while down: %v, want ErrDown", err)
		}
		// The already-granted ungated lease survives the daemon outage —
		// running contexts are not stopped by a control-plane crash.
		if !lease.Valid(env.Now() + time.Hour) {
			t.Error("outstanding ungated lease invalidated by suspend")
		}
		m.Resume()
		if err := m.Register("a", Resources{Request: 0.5}); err != nil {
			t.Errorf("re-register after resume: %v", err)
		}
		if _, err := m.Admit(p, "a"); err != nil {
			t.Errorf("admit after resume: %v", err)
		}
	})
	env.Run()
}

func TestReplicaRoundRobinSlotAssignment(t *testing.T) {
	env := sim.NewEnv()
	r := NewReplica(env, "gpu-0", 2, 100*time.Millisecond, nil)
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := r.Register(id, Resources{Request: 0.25}); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	// a,c share slot 0 and b,d slot 1: both slot leaders admit instantly
	// (their slots are free) while the second client of each slot queues.
	env.Go("holders", func(p *sim.Proc) {
		for _, id := range []string{"a", "b"} {
			start := env.Now()
			if _, err := r.Admit(p, id); err != nil {
				t.Errorf("admit %s: %v", id, err)
			}
			if env.Now() != start {
				t.Errorf("slot leader %s blocked", id)
			}
		}
	})
	env.Go("c", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if _, err := r.Admit(p, "c"); err != nil {
			t.Errorf("admit c: %v", err)
		}
		// c only gets the turn when slot 0 rotates at quota expiry.
		if env.Now() != 100*time.Millisecond {
			t.Errorf("c admitted at %v, want 100ms (quota expiry)", env.Now())
		}
	})
	env.Run()
	if w := r.Waiting("d"); w != 0 {
		t.Fatalf("Waiting(d) = %d, want 0 (nothing queued on slot 1)", w)
	}
}

// TestReplicaDevtimePerTenant: a replica turn's hold time lands in
// kubeshare_sharing_devtime_ns_total under the client's tenant, and each turn
// counts once in kubeshare_sharing_admits_total.
func TestReplicaDevtimePerTenant(t *testing.T) {
	env := sim.NewEnv()
	rt := obs.New(env)
	r := NewReplica(env, "gpu-0", 2, 50*time.Millisecond, rt)
	for _, id := range []string{"a", "b"} {
		if err := r.Register(id, Resources{}); err != nil {
			t.Fatal(err)
		}
	}
	r.SetTenant("a", "pod-a")
	r.SetTenant("b", "pod-b")
	env.Go("run", func(p *sim.Proc) {
		la, err := r.Admit(p, "a")
		if err != nil {
			t.Errorf("admit a: %v", err)
		}
		lb, err := r.Admit(p, "b")
		if err != nil {
			t.Errorf("admit b: %v", err)
		}
		p.Sleep(10 * time.Millisecond)
		r.Release("a", la)
		p.Sleep(5 * time.Millisecond)
		r.Release("b", lb)
	})
	env.Run()
	devtime := rt.CounterVec("kubeshare_sharing_devtime_ns_total", "gpu_uuid", "tenant")
	a, b := devtime.With("gpu-0", "pod-a").Value(), devtime.With("gpu-0", "pod-b").Value()
	if a != int64(10*time.Millisecond) || b != int64(15*time.Millisecond) {
		t.Fatalf("device time pod-a/pod-b %d/%d ns, want 10ms/15ms", a, b)
	}
	if n := rt.CounterVec("kubeshare_sharing_admits_total", "gpu_uuid", "strategy").With("gpu-0", "replica").Value(); n != 2 {
		t.Fatalf("admits %d, want 2", n)
	}
}

// TestRegisterRejectsOutOfRangeShares: a share outside its range is refused,
// NaN and ±Inf included — `x < 0 || x > 1` is false for NaN.
func TestRegisterRejectsOutOfRangeShares(t *testing.T) {
	env := sim.NewEnv()
	token := NewToken(env, "gpu-0", 0, 0, nil)
	mps := NewMPS(env, "gpu-0", nil)
	for _, bad := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			field string
			s     Strategy
			res   Resources
		}{
			{"token request", token, Resources{Request: bad, Limit: 1}},
			{"token limit", token, Resources{Request: 0.5, Limit: bad}},
			{"mps request", mps, Resources{Request: bad, Limit: 1}},
		} {
			if err := c.s.Register("x", c.res); err == nil {
				t.Errorf("%s %v accepted", c.field, bad)
				c.s.Unregister("x")
			}
		}
	}
}
