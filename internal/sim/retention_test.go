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

// TestGetTimeoutPendingBounded is the regression test for the timeout timer
// leak: a proc looping on GetTimeout must not accumulate wake handles in
// p.pending or dead timers in the event queue. Pre-fix, every timed-out Get
// left its timer slot live until the deadline and its handle in p.pending
// forever, so a poll loop grew both without bound.
func TestGetTimeoutPendingBounded(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var maxPending, maxQueue int
	env.Go("poller", func(p *Proc) {
		for i := 0; i < 200; i++ {
			if _, ok := q.GetTimeout(p, time.Millisecond); ok {
				t.Error("unexpected item")
			}
			if n := len(p.pending); n > maxPending {
				maxPending = n
			}
			if n := env.Pending(); n > maxQueue {
				maxQueue = n
			}
		}
	})
	env.Run()
	// pending is cleared on every resume; a handful of entries from the
	// current park is fine, monotonic growth is not.
	if maxPending > 4 {
		t.Fatalf("p.pending grew to %d entries across timeouts", maxPending)
	}
	// The event queue holds this park's timer plus a stopped timer's slot at
	// most; 200 iterations must not stack 200 dead timers.
	if maxQueue > 8 {
		t.Fatalf("event queue grew to %d pending events across timeouts", maxQueue)
	}
}

// TestFinishedProcReleasesBody: a finished proc is a name and a flag. Whoever
// still holds the *Proc (a kubelet's pod worker holds its container's until
// the pod object is deleted) must not keep the coroutine, and through it
// everything the body captured, alive — whether the body returned or was
// killed.
func TestFinishedProcReleasesBody(t *testing.T) {
	for _, kill := range []bool{false, true} {
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
		if kill {
			env.After(time.Millisecond, func() { p.Kill(errors.New("stop")) })
		}
		env.Run()
		if !p.Finished() {
			t.Fatalf("kill=%v: proc not finished", kill)
		}
		for i := 0; i < 200 && !freed.Load(); i++ {
			runtime.GC() // finalizers run on their own goroutine, some time after
			time.Sleep(time.Millisecond)
		}
		if !freed.Load() {
			t.Fatalf("kill=%v: finished proc still pins what its body captured", kill)
		}
		runtime.KeepAlive(p)
		runtime.KeepAlive(env)
	}
}
