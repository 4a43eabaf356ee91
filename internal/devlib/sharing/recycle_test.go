package sharing

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"kubeshare/internal/sim"
)

// contend registers x and y on m, x asking the larger share, and lets both
// hold the token for 30 ms at a time for one second. It returns the grants
// in order, each as its holder and its time since the contention began.
func contend(t *testing.T, env *sim.Env, m *Token) []string {
	t.Helper()
	for _, c := range []struct {
		id  string
		req float64
	}{{"x", 0.6}, {"y", 0.3}} {
		if err := m.Register(c.id, Resources{Request: c.req, Limit: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if r := m.UsageRate("x"); r != 0 {
		t.Fatalf("a newly registered client's usage rate is %v, want 0", r)
	}
	start := env.Now()
	var grants []string
	for _, id := range []string{"x", "y"} {
		env.Go(id, func(p *sim.Proc) {
			for env.Now() < start+time.Second {
				l, err := m.Admit(p, id)
				if err != nil {
					t.Error(err)
					return
				}
				grants = append(grants, fmt.Sprintf("%s@%v", id, env.Now()-start))
				p.Sleep(30 * time.Millisecond)
				m.Release(id, l)
				p.Sleep(time.Millisecond)
			}
		})
	}
	env.Run()
	return grants
}

// TestTokenRecycledWindowStartsEmpty: a client that held the token for
// seconds leaves a grown window behind; the next client to register gets it
// as the spare, and it must start empty. Its usage rate reads 0, and the
// grants it contends for come in the order a fresh Token gives.
func TestTokenRecycledWindowStartsEmpty(t *testing.T) {
	env := sim.NewEnv()
	used := NewToken(env, "gpu-0", 10*time.Millisecond, time.Second, nil)
	if err := used.Register("old", Resources{Request: 1, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	env.Go("old", func(p *sim.Proc) {
		for {
			l, err := used.Admit(p, "old")
			if err != nil {
				return
			}
			p.Sleep(5 * time.Millisecond)
			used.Release("old", l)
			p.Sleep(time.Millisecond)
		}
	})
	env.RunUntil(800 * time.Millisecond)
	grown := used.clients["old"].window
	used.Unregister("old") // mid-stream: drop records a last span first
	env.Run()
	if used.spare != grown || len(grown.spans) <= 16 {
		t.Fatalf("the departed client's window (ring %d) is not the spare", len(grown.spans))
	}

	freshEnv := sim.NewEnv()
	freshEnv.RunUntil(env.Now())
	fresh := NewToken(freshEnv, "gpu-0", 10*time.Millisecond, time.Second, nil)
	want := contend(t, freshEnv, fresh)
	got := contend(t, env, used)
	if used.clients["x"].window != grown {
		t.Fatal("the first client registered did not take the spare window")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("grants after recycling a window:\n  %v\nwant a fresh Token's:\n  %v", got, want)
	}
}

// TestTokenRegisterReusesGrownWindow: a client whose window grew to 128
// spans unregisters; each later Register, 100 spans and Unregister costs the
// client entry alone, with no window and no span ring (6 allocations
// without the spare: the window, then rings of 16, 32, 64 and 128).
func TestTokenRegisterReusesGrownWindow(t *testing.T) {
	env := sim.NewEnv()
	m := NewToken(env, "gpu-0", 0, 0, nil)
	res := Resources{Request: 0.5, Limit: 1}
	cycle := func() {
		if err := m.Register("a", res); err != nil {
			t.Fatal(err)
		}
		w := m.clients["a"].window
		for i := range 100 {
			w.AddSpan(time.Duration(i)*time.Millisecond, time.Duration(i)*time.Millisecond+500*time.Microsecond)
		}
		m.Unregister("a")
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 1 {
		t.Fatalf("Register+Unregister of a grown client: %v allocations, want 1 (the client entry)", allocs)
	}
}
