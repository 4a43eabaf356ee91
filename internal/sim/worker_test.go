package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// stepAll drives env one event at a time until the queue is empty, without
// Run's drain of idle workers.
func stepAll(env *Env) {
	for env.Step() {
	}
}

// warmWorker finishes one proc on env so exactly one idle worker is pooled,
// and returns it.
func warmWorker(t *testing.T, env *Env) *worker {
	t.Helper()
	env.Go("warm", func(p *Proc) {})
	stepAll(env)
	if len(env.idle) != 1 {
		t.Fatalf("idle workers = %d after one finished proc, want 1", len(env.idle))
	}
	return env.idle[0]
}

// TestWorkerReuseKillBeforeFirstRun: a proc killed before its first
// execution, started on a reused worker, never runs its body, finishes with
// the kill reason and leaves Live as on a fresh coroutine — and the worker
// goes back to the pool and runs the next proc normally.
func TestWorkerReuseKillBeforeFirstRun(t *testing.T) {
	type seen struct {
		ran, finished, killed bool
		err                   error
		live                  int
	}
	boom := errors.New("boom")
	observe := func(reuse bool) seen {
		env := NewEnv()
		var w *worker
		if reuse {
			w = warmWorker(t, env)
		}
		var s seen
		victim := env.Go("victim", func(p *Proc) { s.ran = true })
		victim.Kill(boom)
		stepAll(env)
		s.finished, s.killed, s.err, s.live = victim.Finished(), victim.Killed(), victim.killErr, env.Live()
		if reuse {
			if len(env.idle) != 1 || env.idle[0] != w {
				t.Fatalf("the reused worker did not return to the pool: idle=%v", env.idle)
			}
			var nextRan bool
			env.Go("next", func(p *Proc) { p.Sleep(time.Second); nextRan = true })
			stepAll(env)
			if !nextRan || env.Now() != time.Second {
				t.Fatalf("proc after the killed one: ran=%v at %v", nextRan, env.Now())
			}
		}
		return s
	}
	fresh, reused := observe(false), observe(true)
	want := seen{finished: true, killed: true, err: boom}
	if fresh != want {
		t.Fatalf("fresh coroutine: %+v, want %+v", fresh, want)
	}
	if reused != fresh {
		t.Fatalf("reused worker: %+v, fresh coroutine: %+v", reused, fresh)
	}
}

// TestWorkerPanicNotPooled: a real panic in a body running on a pooled worker
// propagates out of Step with its value, the dead worker is not pooled
// again, and the next Go still runs.
func TestWorkerPanicNotPooled(t *testing.T) {
	env := NewEnv()
	warmWorker(t, env)
	env.Go("bad", func(p *Proc) { panic("user bug") })
	recovered := func() (r any) {
		defer func() { r = recover() }()
		stepAll(env)
		return nil
	}()
	if recovered != "user bug" {
		t.Fatalf("Step panicked with %v, want the body's panic", recovered)
	}
	if len(env.idle) != 0 {
		t.Fatalf("idle workers = %d after a panic, want 0 (the dead worker was pooled)", len(env.idle))
	}
	var ran bool
	env.Go("after", func(p *Proc) { p.Sleep(time.Second); ran = true })
	stepAll(env)
	if !ran {
		t.Fatal("proc spawned after the panic never ran")
	}
	if len(env.idle) != 1 {
		t.Fatalf("idle workers = %d, want 1", len(env.idle))
	}
}

// settledGoroutines returns runtime.NumGoroutine once goroutines that were
// already on their way out have gone — a finished test's runner can exit
// after the next test starts: the count must hold still across ten polls a
// millisecond apart (up to two seconds in all).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, polls := 0, 0; still < 10 && polls < 2000; polls++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestWorkerDrainGoroutines: Run and RunUntil end every idle worker, so
// afterwards the process holds one goroutine per parked proc and no more.
func TestWorkerDrainGoroutines(t *testing.T) {
	for _, until := range []bool{false, true} {
		base := settledGoroutines()
		env := NewEnv()
		const parked = 3
		gate := NewEvent(env)
		for i := 0; i < parked; i++ {
			env.Go("parked", func(p *Proc) { p.Wait(gate) })
		}
		for i := 0; i < 5; i++ {
			env.Go("short", func(p *Proc) {
				p.Sleep(time.Duration(i) * time.Second)
				env.Go("child", func(c *Proc) { c.Sleep(time.Second) })
			})
		}
		if until {
			env.RunUntil(time.Minute)
		} else {
			env.Run()
		}
		if got := runtime.NumGoroutine(); got != base+parked || len(env.idle) != 0 {
			t.Fatalf("until=%v: %d goroutines and %d idle workers, want %d and 0", until, got, len(env.idle), base+parked)
		}
		if env.Live() != parked {
			t.Fatalf("until=%v: Live = %d, want %d", until, env.Live(), parked)
		}
		runtime.KeepAlive(env)
	}
}

// TestSpawnAllocs pins the cost of a short proc's life on a warm Env: the
// Proc and its wake-handle slice, nothing for the coroutine.
func TestSpawnAllocs(t *testing.T) {
	env := NewEnv()
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	allocs := testing.AllocsPerRun(200, func() {
		env.Go("spawn", body)
		stepAll(env)
	})
	if allocs > 2 {
		t.Fatalf("spawn+Sleep+finish = %.1f allocs, want ≤ 2", allocs)
	}
}
