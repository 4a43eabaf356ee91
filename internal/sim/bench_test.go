package sim

import (
	"testing"
	"time"
)

// BenchmarkTimerChurn measures raw event-queue throughput: schedule + fire.
func BenchmarkTimerChurn(b *testing.B) {
	env := NewEnv()
	n := 0
	for i := 0; i < b.N; i++ {
		env.After(time.Microsecond, func() { n++ })
		env.Step()
	}
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkProcContextSwitch measures the cost of one park/resume cycle
// (two goroutine handoffs per virtual sleep).
func BenchmarkProcContextSwitch(b *testing.B) {
	env := NewEnv()
	env.Go("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkQueueHandoff measures producer→consumer message latency in sim
// events.
func BenchmarkQueueHandoff(b *testing.B) {
	env := NewEnv()
	q := NewQueue[int](env)
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	env.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Yield()
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkSimKernelSameInstant measures the same-instant FIFO ring: every
// event is scheduled at the current virtual time, so nothing touches the
// head register or the heap.
func BenchmarkSimKernelSameInstant(b *testing.B) {
	env := NewEnv()
	n := 0
	fn := func() { n++ }
	for i := 0; i < b.N; i++ {
		env.At(env.Now(), fn)
		env.Step()
	}
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkSimKernelTimerStop measures the cancellation path: half the
// scheduled timers are stopped before they fire, exercising slot recycling
// through the lazy-cancel route as well as the firing route.
func BenchmarkSimKernelTimerStop(b *testing.B) {
	env := NewEnv()
	n := 0
	fn := func() { n++ }
	for i := 0; i < b.N; i++ {
		keep := env.After(time.Microsecond, fn)
		cancel := env.After(2*time.Microsecond, fn)
		if !cancel.Stop() {
			b.Fatal("Stop() = false on a pending timer")
		}
		env.Step()
		_ = keep
	}
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
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

// BenchmarkSimKernelDeepHeap measures schedule+fire churn with 1000 timers
// permanently outstanding: every fired timer reschedules itself at a spread
// deadline, so each Step is one pop from and one push into a ~1000-deep
// 4-ary heap (the head register and same-instant ring cannot absorb it).
func BenchmarkSimKernelDeepHeap(b *testing.B) {
	env := NewEnv()
	const standing = 1000
	n := 0
	fns := make([]func(), standing)
	for i := 0; i < standing; i++ {
		d := time.Duration(1+i%97) * time.Microsecond
		fns[i] = func() {
			n++
			env.After(d, fns[i])
		}
		env.After(d, fns[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Step()
	}
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkManyProcs measures scheduling with a thousand concurrent procs
// ticking independently — the cluster-at-scale shape.
func BenchmarkManyProcs(b *testing.B) {
	env := NewEnv()
	const procs = 1000
	ticks := b.N/procs + 1
	for i := 0; i < procs; i++ {
		env.Go("ticker", func(p *Proc) {
			for t := 0; t < ticks; t++ {
				p.Sleep(time.Duration(1+p.ID()%17) * time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	env.Run()
}
