package sim

import (
	"testing"
	"time"
)

// The kernel micro-benchmarks. Each rig builds its benchmark's steady state
// and returns one iteration; procs it starts are killed when tb ends. The
// benchmarks time b.N iterations, and TestMicroBenchmarkAllocsHeldExactly
// counts what one allocates.

// benchOps times b.N iterations of rig's op.
func benchOps(b *testing.B, rig func(testing.TB) func()) {
	op := rig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// killAtEnd kills procs when tb ends and runs env until they are gone.
func killAtEnd(tb testing.TB, env *Env, procs ...*Proc) {
	tb.Cleanup(func() {
		for _, p := range procs {
			p.Kill(nil)
		}
		env.Run()
	})
}

// timerChurn is raw event-queue throughput: schedule + fire.
func timerChurn(testing.TB) func() {
	env := NewEnv()
	n := 0
	return func() {
		env.After(time.Microsecond, func() { n++ })
		env.Step()
	}
}

// procContextSwitch is one park/resume cycle (two goroutine handoffs per
// virtual sleep).
func procContextSwitch(tb testing.TB) func() {
	env := NewEnv()
	spinner := env.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	killAtEnd(tb, env, spinner)
	return func() { env.Step() }
}

// queueHandoff is one producer→consumer message.
func queueHandoff(tb testing.TB) func() {
	env := NewEnv()
	q := NewQueue[int](env)
	got := 0
	consumer := env.Go("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			got++
		}
	})
	producer := env.Go("producer", func(p *Proc) {
		for i := 0; ; i++ {
			q.Put(i)
			p.Yield()
		}
	})
	killAtEnd(tb, env, consumer, producer)
	return func() {
		for want := got + 1; got < want; {
			env.Step()
		}
	}
}

// sameInstant exercises the same-instant FIFO ring: every event is
// scheduled at the current virtual time, so nothing touches the head
// register or the heap.
func sameInstant(testing.TB) func() {
	env := NewEnv()
	n := 0
	fn := func() { n++ }
	return func() {
		env.At(env.Now(), fn)
		env.Step()
	}
}

// timerStop is the cancellation path: half the scheduled timers are stopped
// before they fire, exercising slot recycling through the lazy-cancel route
// as well as the firing route.
func timerStop(tb testing.TB) func() {
	env := NewEnv()
	n := 0
	fn := func() { n++ }
	return func() {
		env.After(time.Microsecond, fn)
		if !env.After(2*time.Microsecond, fn).Stop() {
			tb.Fatal("Stop() = false on a pending timer")
		}
		env.Step()
	}
}

// deepHeap is schedule+fire churn with 1000 timers permanently outstanding:
// every fired timer reschedules itself at a spread deadline, so each Step is
// one pop from and one push into a ~1000-deep 4-ary heap (the head register
// and same-instant ring cannot absorb it).
func deepHeap(testing.TB) func() {
	env := NewEnv()
	fns := make([]func(), 1000)
	for i := range fns {
		d := time.Duration(1+i%97) * time.Microsecond
		fns[i] = func() { env.After(d, fns[i]) }
		env.After(d, fns[i])
	}
	return func() { env.Step() }
}

// manyProcs is a thousand concurrent procs ticking independently — the
// cluster-at-scale shape; one iteration is one proc's tick.
func manyProcs(tb testing.TB) func() {
	env := NewEnv()
	procs := make([]*Proc, 1000)
	for i := range procs {
		procs[i] = env.Go("ticker", func(p *Proc) {
			for {
				p.Sleep(time.Duration(1+p.ID()%17) * time.Microsecond)
			}
		})
	}
	killAtEnd(tb, env, procs...)
	return func() { env.Step() }
}

// eventWait is a one-shot event's life: made, waited on by one proc,
// triggered. The Event is its one allocation; the waiter rides inline.
func eventWait(tb testing.TB) func() {
	env := NewEnv()
	var ev *Event
	waiter := env.Go("waiter", func(p *Proc) {
		for {
			ev = NewEvent(env)
			p.Wait(ev)
		}
	})
	killAtEnd(tb, env, waiter)
	env.Step() // the waiter parks on its first event
	return func() {
		ev.Trigger(nil)
		env.Step() // it wakes, makes the next event and parks on it
	}
}

func BenchmarkTimerChurn(b *testing.B)           { benchOps(b, timerChurn) }
func BenchmarkProcContextSwitch(b *testing.B)    { benchOps(b, procContextSwitch) }
func BenchmarkQueueHandoff(b *testing.B)         { benchOps(b, queueHandoff) }
func BenchmarkSimKernelSameInstant(b *testing.B) { benchOps(b, sameInstant) }
func BenchmarkSimKernelTimerStop(b *testing.B)   { benchOps(b, timerStop) }
func BenchmarkSimKernelDeepHeap(b *testing.B)    { benchOps(b, deepHeap) }
func BenchmarkManyProcs(b *testing.B)            { benchOps(b, manyProcs) }
func BenchmarkEventWait(b *testing.B)            { benchOps(b, eventWait) }

// TestMicroBenchmarkAllocsHeldExactly pins what one iteration of each
// micro-benchmark above allocates, as the benchmark counts allocs/op (the
// mean over 4096 iterations after a warm-up, truncated): nothing, except
// TimerChurn's one, which is the benchmark's own escaping closure, not the
// kernel's, and EventWait's one, the Event (its first waiter is inline).
func TestMicroBenchmarkAllocsHeldExactly(t *testing.T) {
	for _, c := range []struct {
		name  string
		rig   func(testing.TB) func()
		perOp float64
	}{
		{"TimerChurn", timerChurn, 1},
		{"ProcContextSwitch", procContextSwitch, 0},
		{"QueueHandoff", queueHandoff, 0},
		{"SimKernelSameInstant", sameInstant, 0},
		{"SimKernelTimerStop", timerStop, 0},
		{"SimKernelDeepHeap", deepHeap, 0},
		{"ManyProcs", manyProcs, 0},
		{"EventWait", eventWait, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			op := c.rig(t)
			for i := 0; i < 4096; i++ {
				op() // warm-up: ManyProcs starts its thousand procs
			}
			if allocs := testing.AllocsPerRun(4096, op); allocs != c.perOp {
				t.Errorf("%v allocations per iteration, want %v", allocs, c.perOp)
			}
		})
	}
}

// BenchmarkSimKernelSpawn measures a short proc's whole life — spawn, one
// Sleep, finish — the shape of every container start's control path. After
// the first iteration each spawn runs on the previous proc's idle worker.
func BenchmarkSimKernelSpawn(b *testing.B) {
	env := NewEnv()
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Go("spawn", body)
		for env.Step() {
		}
	}
}
