package controller

import (
	"errors"
	"testing"
	"time"

	"kubeshare/internal/sim"
)

func TestRunnerProcessesKeys(t *testing.T) {
	env := sim.NewEnv()
	var got []string
	r := NewRunner(env, "test", 0, func(p *sim.Proc, key string) error {
		got = append(got, key)
		return nil
	})
	r.Start()
	env.Go("t", func(p *sim.Proc) {
		r.Enqueue("a")
		r.Enqueue("b")
	})
	env.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got = %v", got)
	}
}

func TestRunnerCoalescesDuplicateKeys(t *testing.T) {
	env := sim.NewEnv()
	count := 0
	r := NewRunner(env, "test", 0, func(p *sim.Proc, key string) error {
		count++
		return nil
	})
	r.Start()
	env.Go("t", func(p *sim.Proc) {
		r.Enqueue("x")
		r.Enqueue("x")
		r.Enqueue("x")
	})
	env.Run()
	if count != 1 {
		t.Fatalf("reconciled %d times, want 1 (coalesced)", count)
	}
}

func TestRunnerRequeuesOnErrorWithBackoff(t *testing.T) {
	env := sim.NewEnv()
	var times []time.Duration
	r := NewRunner(env, "test", 200*time.Millisecond, func(p *sim.Proc, key string) error {
		times = append(times, env.Now())
		if len(times) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	r.Start()
	env.Go("t", func(p *sim.Proc) { r.Enqueue("x") })
	env.Run()
	if len(times) != 3 {
		t.Fatalf("attempts = %d, want 3", len(times))
	}
	if d := times[1] - times[0]; d < 200*time.Millisecond {
		t.Fatalf("retry after %v, want ≥200ms backoff", d)
	}
}

func TestRunnerReEnqueueAfterProcessing(t *testing.T) {
	env := sim.NewEnv()
	count := 0
	r := NewRunner(env, "test", 0, func(p *sim.Proc, key string) error {
		count++
		return nil
	})
	r.Start()
	env.Go("t", func(p *sim.Proc) {
		r.Enqueue("x")
		p.Sleep(time.Second)
		r.Enqueue("x") // after the first reconcile completed: fresh work
	})
	env.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

// The Runner's per-key concurrency contract.

// TestRunnerKeysOverlap: reconciles of different keys that block run side by
// side, not one after the other.
func TestRunnerKeysOverlap(t *testing.T) {
	env := sim.NewEnv()
	done := map[string]time.Duration{}
	r := NewRunner(env, "test", 0, func(p *sim.Proc, key string) error {
		p.Sleep(time.Second)
		done[key] = env.Now()
		return nil
	})
	r.Start()
	env.Go("t", func(p *sim.Proc) {
		r.Enqueue("a")
		r.Enqueue("b")
	})
	env.Run()
	if done["a"] != time.Second || done["b"] != time.Second {
		t.Fatalf("reconciles finished at %v, want both at 1s", done)
	}
}

// TestRunnerKeyNeverRunsTwiceAtOnce: a key enqueued and synced while its
// reconcile blocks waits for that run to end.
func TestRunnerKeyNeverRunsTwiceAtOnce(t *testing.T) {
	env := sim.NewEnv()
	running, most := 0, 0
	r := NewRunner(env, "test", 0, func(p *sim.Proc, key string) error {
		running++
		most = max(most, running)
		p.Sleep(time.Second)
		running--
		return nil
	})
	r.Start()
	env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			r.Enqueue("x")
			p.Sleep(300 * time.Millisecond)
			r.Sync(p, "x")
		}
	})
	env.Run()
	if most != 1 {
		t.Fatalf("%d reconciles of one key in flight at once, want 1", most)
	}
}

// TestRunnerEnqueueDuringRunRerunsOnce: however often a key is enqueued or
// synced while its reconcile runs, it runs exactly once more, after that run.
func TestRunnerEnqueueDuringRunRerunsOnce(t *testing.T) {
	env := sim.NewEnv()
	var starts []time.Duration
	r := NewRunner(env, "test", 0, func(p *sim.Proc, key string) error {
		starts = append(starts, env.Now())
		p.Sleep(time.Second)
		return nil
	})
	r.Start()
	env.Go("t", func(p *sim.Proc) {
		r.Enqueue("x")
		for i := 0; i < 3; i++ {
			p.Sleep(200 * time.Millisecond)
			r.Enqueue("x")
			r.Sync(p, "x")
		}
	})
	env.Run()
	if len(starts) != 2 || starts[0] != 0 || starts[1] != time.Second {
		t.Fatalf("runs started at %v, want [0s 1s]", starts)
	}
}

// TestRunnerSyncRunsInCaller: Sync reconciles before it returns, in the
// caller's instant.
func TestRunnerSyncRunsInCaller(t *testing.T) {
	env := sim.NewEnv()
	count := 0
	r := NewRunner(env, "test", 0, func(p *sim.Proc, key string) error {
		count++
		return nil
	})
	env.Go("t", func(p *sim.Proc) {
		r.Sync(p, "x")
		if count != 1 {
			t.Errorf("Sync returned with %d reconciles, want 1", count)
		}
	})
	env.Run()
}

// TestRunnerErrorsBackOff: a failing key retries no sooner than the base
// delay whether it came through Enqueue or Sync, and holds up no other key.
func TestRunnerErrorsBackOff(t *testing.T) {
	env := sim.NewEnv()
	var bad []time.Duration
	good := time.Duration(-1)
	r := NewRunner(env, "test", 100*time.Millisecond, func(p *sim.Proc, key string) error {
		if key == "good" {
			good = env.Now()
			return nil
		}
		bad = append(bad, env.Now())
		if len(bad) < 4 {
			return errors.New("transient")
		}
		return nil
	})
	r.Start()
	env.Go("t", func(p *sim.Proc) {
		r.Sync(p, "bad")
		r.Enqueue("good")
	})
	env.Run()
	if len(bad) != 4 || good != 0 {
		t.Fatalf("bad ran at %v, good at %v; want 4 runs and good at 0s", bad, good)
	}
	for i := 1; i < len(bad); i++ {
		if d := bad[i] - bad[i-1]; d < 100*time.Millisecond {
			t.Fatalf("retry %d came after %v, under the 100ms base", i, d)
		}
	}
}
