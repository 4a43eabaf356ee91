package sim

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainedQueueReleasesReferences is the regression test for the memory
// retention fix: a drained queue must not pin delivered values through stale
// copies left in its ring buffer. Pre-fix, items lingered in the backing
// array after TryGet (the `s = s[1:]` idiom never zeroed slots), keeping
// arbitrarily large object graphs alive for the queue's lifetime.
func TestDrainedQueueReleasesReferences(t *testing.T) {
	env := NewEnv()
	q := NewQueue[*int](env)
	// Push enough to force at least one grow cycle, then drain completely.
	for i := 0; i < 100; i++ {
		v := i
		q.Put(&v)
	}
	for i := 0; i < 100; i++ {
		if _, ok := q.TryGet(); !ok {
			t.Fatalf("TryGet %d: queue empty early", i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
	for i, v := range q.items.buf {
		if v != nil {
			t.Fatalf("drained queue retains item reference in slot %d", i)
		}
	}

	// Same for the interleaved Put/Get pattern that wraps the ring.
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			v := i
			q.Put(&v)
		}
		for i := 0; i < 3; i++ {
			q.TryGet()
		}
	}
	for i, v := range q.items.buf {
		if v != nil {
			t.Fatalf("wrapped queue retains item reference in slot %d", i)
		}
	}
}

// TestFinishedProcReleasesBody: a finished proc is a name and a flag. Whoever
// still holds the *Proc (a kubelet's pod worker holds its container's until
// the pod object is deleted) must not keep the coroutine, and through it
// everything the body captured, alive — whether the body returned or was
// killed. Driven by bare Steps, with no Run to drain the pool, the proc's
// worker stays idle and must pin nothing either.
func TestFinishedProcReleasesBody(t *testing.T) {
	for _, c := range []struct{ kill, step bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		env := NewEnv()
		var freed atomic.Bool
		spawn := func() *Proc { // its own frame, so no stack slot keeps payload
			payload := new([1 << 16]byte)
			runtime.SetFinalizer(payload, func(*[1 << 16]byte) { freed.Store(true) })
			return env.Go("body", func(p *Proc) {
				p.Sleep(time.Second)
				payload[0]++
			})
		}
		p := spawn()
		if c.kill {
			env.After(time.Millisecond, func() { p.Kill(errors.New("stop")) })
		}
		idle := 0
		if c.step {
			stepAll(env)
			idle = 1
		} else {
			env.Run()
		}
		if !p.Finished() || len(env.idle) != idle {
			t.Fatalf("%+v: finished=%v idle=%d, want a finished proc and %d idle workers", c, p.Finished(), len(env.idle), idle)
		}
		for i := 0; i < 200 && !freed.Load(); i++ {
			runtime.GC() // finalizers run on their own goroutine, some time after
			time.Sleep(time.Millisecond)
		}
		if !freed.Load() {
			t.Fatalf("%+v: finished proc or its idle worker still pins what its body captured", c)
		}
		runtime.KeepAlive(p)
		runtime.KeepAlive(env)
	}
}
