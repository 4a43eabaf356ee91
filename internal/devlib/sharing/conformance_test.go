package sharing

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// The Strategy conformance suite: what every sharing policy promises its
// frontends, run against each constructor. Cases about exclusive turns run
// on the gated strategies only.

const confQuota = 10 * time.Millisecond

// confRes is a demand every strategy accepts.
var confRes = Resources{Request: 0.2, Limit: 1, MemFraction: 0.1}

type confCase struct {
	name string
	// slots is the number of gates turns rotate on (clients are assigned
	// round-robin in registration order); 0 for the ungated strategy.
	slots int
	new   func(env *sim.Env, rt *obs.Runtime) Strategy
}

var confCases = []confCase{
	{"token", 1, func(env *sim.Env, rt *obs.Runtime) Strategy {
		return NewToken(env, "gpu-0", confQuota, time.Second, rt)
	}},
	{"mps", 0, func(env *sim.Env, rt *obs.Runtime) Strategy { return NewMPS(env, "gpu-0", rt) }},
	{"replica1", 1, func(env *sim.Env, rt *obs.Runtime) Strategy { return NewReplica(env, "gpu-0", 1, confQuota, rt) }},
	{"replica2", 2, func(env *sim.Env, rt *obs.Runtime) Strategy { return NewReplica(env, "gpu-0", 2, confQuota, rt) }},
}

// conform runs body as one subtest per strategy (gated ones only when asked).
func conform(t *testing.T, gatedOnly bool, body func(t *testing.T, c confCase)) {
	for _, c := range confCases {
		if gatedOnly && c.slots == 0 {
			continue
		}
		t.Run(c.name, func(t *testing.T) { body(t, c) })
	}
}

// open builds a fresh simulation and strategy with telemetry on.
func (c confCase) open() (*sim.Env, Strategy) {
	env := sim.NewEnv()
	return env, c.new(env, obs.New(env))
}

// mates registers "a", slots-1 fillers and "b", in that order, on a strategy
// with no registrations since its last Suspend, so that a and b share a gate.
func (c confCase) mates(t *testing.T, s Strategy) (string, string) {
	t.Helper()
	ids := []string{"a"}
	for i := 1; i < c.slots; i++ {
		ids = append(ids, fmt.Sprint("filler", i))
	}
	ids = append(ids, "b")
	for _, id := range ids {
		if err := s.Register(id, confRes); err != nil {
			t.Errorf("register %s: %v", id, err)
		}
	}
	return "a", "b"
}

// TestConformanceRegistration: a duplicate Register is refused; an admit by
// an unknown id, any admit while suspended and a Register while suspended
// all satisfy errors.Is(err, ErrDown).
func TestConformanceRegistration(t *testing.T) {
	conform(t, false, func(t *testing.T, c confCase) {
		env, s := c.open()
		if err := s.Register("a", confRes); err != nil {
			t.Fatal(err)
		}
		if err := s.Register("a", confRes); err == nil {
			t.Fatal("duplicate Register accepted")
		}
		if !s.Registered("a") || s.Clients() != 1 {
			t.Fatalf("Registered(a)=%v Clients=%d after one Register", s.Registered("a"), s.Clients())
		}
		env.Go("admits", func(p *sim.Proc) {
			if _, err := s.Admit(p, "ghost"); !errors.Is(err, ErrDown) {
				t.Errorf("admit by unknown id: %v, want ErrDown", err)
			}
			s.Suspend()
			if _, err := s.Admit(p, "a"); !errors.Is(err, ErrDown) {
				t.Errorf("admit while suspended: %v, want ErrDown", err)
			}
			if err := s.Register("b", confRes); !errors.Is(err, ErrDown) {
				t.Errorf("Register while suspended: %v, want ErrDown", err)
			}
		})
		env.Run()
	})
}

// TestConformanceSuspendFailsQueuedAdmits: every admit still queued when the
// strategy is suspended fails with ErrDown, registrations and the queue are
// gone, and after Resume a re-registered client is admitted again.
func TestConformanceSuspendFailsQueuedAdmits(t *testing.T) {
	conform(t, false, func(t *testing.T, c confCase) {
		env, s := c.open()
		ids := []string{"a", "b", "c", "d"}
		granted, failed := 0, 0
		for _, id := range ids {
			if err := s.Register(id, confRes); err != nil {
				t.Fatal(err)
			}
			env.Go(id, func(p *sim.Proc) {
				_, err := s.Admit(p, id)
				switch {
				case err == nil && env.Now() == 0:
					granted++
				case errors.Is(err, ErrDown) && env.Now() == time.Millisecond:
					failed++
				default:
					t.Errorf("admit %s at %v: %v, want a grant at 0 or ErrDown at the suspend", id, env.Now(), err)
				}
			})
		}
		var queued int
		env.Go("crash", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			queued = s.Stats().QueueDepth
			s.Suspend()
			if st := s.Stats(); !s.Down() || s.Clients() != 0 || st.QueueDepth != 0 {
				t.Errorf("after Suspend: Down=%v Clients=%d QueueDepth=%d, want true/0/0", s.Down(), s.Clients(), st.QueueDepth)
			}
			p.Sleep(time.Millisecond)
			s.Resume()
			if err := s.Register("a", confRes); err != nil {
				t.Errorf("re-register after Resume: %v", err)
			}
			if _, err := s.Admit(p, "a"); err != nil {
				t.Errorf("admit after Resume: %v", err)
			}
		})
		env.Run()
		if failed != queued || granted+failed != len(ids) {
			t.Fatalf("%d granted, %d failed, %d were queued at the suspend", granted, failed, queued)
		}
		if want := len(ids) - min(c.slots, len(ids)); c.slots > 0 && failed != want {
			t.Fatalf("%d admits failed, want the %d that were waiting for a turn", failed, want)
		}
	})
}

// TestConformanceStaleReleaseIgnored: Release with a lease from an earlier
// turn — one the client released itself, or one granted before a crash —
// leaves the current turn alone.
func TestConformanceStaleReleaseIgnored(t *testing.T) {
	conform(t, true, func(t *testing.T, c confCase) {
		env, s := c.open()
		a, b := c.mates(t, s)
		// holds checks that id's turn under lease l is still on.
		holds := func(p *sim.Proc, id string, l Lease) {
			t.Helper()
			if h := s.Stats().Holder; h != id {
				t.Errorf("holder %q, want %q", h, id)
			}
			if got, err := s.Admit(p, id); err != nil || got.Seq != l.Seq || env.Now() >= l.ExpiresAt {
				t.Errorf("re-admit by the holder: %+v, %v; want its lease %+v back", got, err, l)
			}
		}
		env.Go(a, func(p *sim.Proc) {
			l1, _ := s.Admit(p, a)
			s.Release(a, l1)
			l2, _ := s.Admit(p, a)
			if l2.Seq == l1.Seq {
				t.Errorf("a new turn reused seq %d", l1.Seq)
			}
			s.Release(a, l1) // stale: its own earlier turn
			holds(p, a, l2)
			s.Suspend()
			s.Resume()
			c.mates(t, s)
			l3, _ := s.Admit(p, a)
			s.Release(a, l2) // granted before the crash
			holds(p, a, l3)
			p.Sleep(time.Millisecond)
			s.Release(a, l3) // b, queued since 0.5ms, takes the turn
			p.Sleep(time.Millisecond)
			s.Release(a, l3) // stale: b's turn is not a's to end
			if h := s.Stats().Holder; h != b {
				t.Errorf("holder %q after a stale release, want %q", h, b)
			}
		})
		env.Go(b, func(p *sim.Proc) {
			p.Sleep(time.Millisecond / 2)
			if _, err := s.Admit(p, b); err != nil || env.Now() != time.Millisecond {
				t.Errorf("%s admitted at %v (%v), want 1ms (a's release)", b, env.Now(), err)
			}
		})
		env.Run()
	})
}

// TestConformanceUnregisterHolderHandsOff: unregistering the holder hands the
// turn to the next waiter on its gate at the same instant.
func TestConformanceUnregisterHolderHandsOff(t *testing.T) {
	conform(t, true, func(t *testing.T, c confCase) {
		env, s := c.open()
		a, b := c.mates(t, s)
		env.Go(a, func(p *sim.Proc) {
			if _, err := s.Admit(p, a); err != nil {
				t.Errorf("admit %s: %v", a, err)
			}
			p.Sleep(5 * time.Millisecond)
			if w := s.Waiting(a); w != 1 {
				t.Errorf("Waiting(%s) = %d, want 1 (%s queued on its gate)", a, w, b)
			}
			s.Unregister(a)
		})
		env.Go(b, func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			if _, err := s.Admit(p, b); err != nil {
				t.Errorf("admit %s: %v", b, err)
			}
			if env.Now() != 5*time.Millisecond {
				t.Errorf("%s admitted at %v, want 5ms (holder unregistered)", b, env.Now())
			}
		})
		env.Run()
	})
}

// TestConformanceBacklogAdmitted: clients that always want the device, and
// hand it over when someone waits (as the frontend does), are all admitted
// again and again.
func TestConformanceBacklogAdmitted(t *testing.T) {
	conform(t, false, func(t *testing.T, c confCase) {
		env, s := c.open()
		turns := map[string]int{}
		for _, id := range []string{"a", "b", "c"} {
			if err := s.Register(id, confRes); err != nil {
				t.Fatal(err)
			}
			env.Go(id, func(p *sim.Proc) {
				var held Lease
				for env.Now() < time.Second {
					l, err := s.Admit(p, id)
					if err != nil {
						t.Errorf("admit %s: %v", id, err)
						return
					}
					if l.Seq != held.Seq {
						turns[id]++
					}
					held = l
					p.Sleep(3 * time.Millisecond)
					if s.Waiting(id) > 0 {
						s.Release(id, held)
						held = Lease{}
					}
				}
			})
		}
		env.Run()
		for _, id := range []string{"a", "b", "c"} {
			if turns[id] < 10 {
				t.Errorf("%s admitted %d times in 1s, want ≥ 10 (turns %v)", id, turns[id], turns)
			}
		}
	})
}

// TestConformanceHandoffsMonotonic: Stats().Handoffs is a running total of
// grants — departures and crashes never take it back.
func TestConformanceHandoffsMonotonic(t *testing.T) {
	conform(t, false, func(t *testing.T, c confCase) {
		env, s := c.open()
		for _, id := range []string{"a", "b"} {
			if err := s.Register(id, confRes); err != nil {
				t.Fatal(err)
			}
		}
		var seen []int64
		note := func() { seen = append(seen, s.Stats().Handoffs) }
		env.Go("run", func(p *sim.Proc) {
			for _, id := range []string{"a", "b"} {
				l, err := s.Admit(p, id)
				if err != nil {
					t.Errorf("admit %s: %v", id, err)
				}
				s.Release(id, l)
			}
			note()
			s.Unregister("a")
			note()
			s.Suspend()
			note()
			s.Resume()
			if err := s.Register("a", confRes); err != nil {
				t.Errorf("re-register: %v", err)
			}
			if _, err := s.Admit(p, "a"); err != nil {
				t.Errorf("admit after resume: %v", err)
			}
			note()
		})
		env.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				t.Fatalf("handoffs went backwards: %v (after two grants, Unregister, Suspend, a third grant)", seen)
			}
		}
		if seen[0] != 2 || seen[3] != 3 {
			t.Fatalf("handoffs %v, want 2 after two grants and 3 after the third", seen)
		}
	})
}

// TestConformanceAdmitReleaseAllocs: once warm, an Admit+Release cycle —
// including the queued path, with two clients contending — allocates
// nothing under any strategy.
func TestConformanceAdmitReleaseAllocs(t *testing.T) {
	conform(t, false, func(t *testing.T, c confCase) {
		env, s := c.open()
		cycles := 0
		var procs []*sim.Proc
		t.Cleanup(func() {
			for _, p := range procs {
				p.Kill(nil)
			}
			env.Run()
		})
		for _, id := range []string{"a", "b"} {
			if err := s.Register(id, confRes); err != nil {
				t.Fatal(err)
			}
			procs = append(procs, env.Go(id, func(p *sim.Proc) {
				for {
					l, err := s.Admit(p, id)
					if err != nil {
						return
					}
					p.Sleep(2 * time.Millisecond)
					s.Release(id, l)
					cycles++
					p.Sleep(time.Millisecond)
				}
			}))
		}
		env.RunUntil(3 * time.Second) // past the token's usage window
		allocs := testing.AllocsPerRun(1, func() {
			for target := cycles + 500; cycles < target; {
				if !env.Step() {
					t.Fatal("simulation drained")
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%v allocations over 500 steady-state Admit+Release cycles, want 0", allocs)
		}
	})
}

// confTurn is one observed hold of a gate: from the grant to the first of
// its expiry, its release, its holder's Unregister and a Suspend.
type confTurn struct {
	id         string
	slot       int
	seq        uint64
	start, end time.Duration
}

// TestConformanceRandomInterleavings drives seeded random interleavings of
// Admit, Release (current and stale leases), Sleep, Unregister and
// Suspend/Resume. Every proc finishes, every admit error is ErrDown,
// Stats().Handoffs never decreases and, on gated strategies, turns on one
// gate never overlap.
func TestConformanceRandomInterleavings(t *testing.T) {
	conform(t, false, func(t *testing.T, c confCase) {
		for seed := int64(1); seed <= 60; seed++ {
			if msg := confRandomRun(c, seed); msg != "" {
				t.Fatalf("seed %d: %s", seed, msg)
			}
		}
	})
}

func confRandomRun(c confCase, seed int64) string {
	env, s := c.open()
	rng := rand.New(rand.NewSource(seed))
	var (
		failure  string
		turns    []confTurn
		open     = map[string]*confTurn{}
		slotOf   = map[string]int{}
		regs     int // successful Registers since the last Suspend (replica slots are assigned by it)
		epoch    int // Suspends so far
		handoffs int64
		finished int
	)
	fail := func(format string, args ...any) {
		if failure == "" {
			failure = fmt.Sprintf("t=%v: ", env.Now()) + fmt.Sprintf(format, args...)
		}
	}
	observe := func() {
		if h := s.Stats().Handoffs; h < handoffs {
			fail("Handoffs went backwards: %d → %d", handoffs, h)
		} else {
			handoffs = h
		}
	}
	closeTurn := func(id string) {
		if tr := open[id]; tr != nil {
			if tr.end = min(tr.end, env.Now()); tr.end > tr.start {
				turns = append(turns, *tr)
			}
			delete(open, id)
		}
	}
	register := func(id string) {
		if s.Down() || s.Registered(id) {
			return
		}
		if err := s.Register(id, confRes); err != nil {
			fail("register %s: %v", id, err)
			return
		}
		if c.slots > 0 {
			slotOf[id] = regs % c.slots
		}
		regs++
	}
	const clients, steps = 4, 40
	for i := 0; i < clients; i++ {
		id := fmt.Sprint("c", i)
		register(id)
		r := rand.New(rand.NewSource(rng.Int63()))
		env.Go(id, func(p *sim.Proc) {
			defer func() { finished++ }()
			var cur, prev Lease
			for step := 0; step < steps; step++ {
				switch r.Intn(6) {
				case 0, 1:
					register(id)
					before := epoch
					l, err := s.Admit(p, id)
					observe()
					if err != nil {
						if !errors.Is(err, ErrDown) {
							fail("admit %s: %v, want ErrDown", id, err)
						}
						continue
					}
					if tr := open[id]; tr != nil && tr.seq == l.Seq {
						continue // still holding: the same turn
					}
					closeTurn(id) // an earlier turn of ours expired
					if epoch != before {
						continue // granted at the instant of a Suspend, which ended it
					}
					prev, cur = cur, l
					if c.slots > 0 {
						open[id] = &confTurn{id: id, slot: slotOf[id], seq: l.Seq, start: env.Now(), end: l.ExpiresAt}
					}
				case 2:
					p.Sleep(time.Duration(r.Intn(int(2 * confQuota))))
				case 3:
					// Replica seqs count per slot, so after a re-register an
					// older lease can carry the current turn's seq; only a
					// distinct one is stale.
					if r.Intn(2) == 0 && prev.Seq != cur.Seq {
						s.Release(id, prev) // stale: must not end the current turn
					} else {
						s.Release(id, cur)
						if tr := open[id]; tr != nil && tr.seq == cur.Seq {
							closeTurn(id)
						}
					}
					observe()
				case 4:
					s.Unregister(id)
					closeTurn(id)
					observe()
				case 5:
					p.Sleep(time.Millisecond)
				}
			}
		})
	}
	env.Go("chaos", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Duration(rng.Intn(int(20 * confQuota))))
			s.Suspend()
			epoch++
			regs = 0
			for i := 0; i < clients; i++ {
				closeTurn(fmt.Sprint("c", i))
			}
			observe()
			p.Sleep(time.Duration(rng.Intn(int(3 * confQuota))))
			s.Resume()
		}
	})
	env.Run()
	if finished != clients {
		fail("%d of %d clients finished (an admit never returned)", finished, clients)
	}
	for id := range open {
		closeTurn(id)
	}
	sort.SliceStable(turns, func(i, j int) bool {
		if turns[i].slot != turns[j].slot {
			return turns[i].slot < turns[j].slot
		}
		return turns[i].start < turns[j].start
	})
	for i := 1; i < len(turns); i++ {
		if a, b := turns[i-1], turns[i]; a.slot == b.slot && a.end > b.start {
			fail("turns overlap on gate %d: %s [%v,%v) and %s [%v,%v)", a.slot, a.id, a.start, a.end, b.id, b.start, b.end)
		}
	}
	return failure
}
