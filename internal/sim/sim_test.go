package sim

import (
	"errors"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", env.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var at time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		at = p.Env().Now()
	})
	env.Run()
	if at != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", at)
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("final clock %v, want 3s", env.Now())
	}
}

func TestSequentialSleeps(t *testing.T) {
	env := NewEnv()
	var marks []time.Duration
	env.Go("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(time.Second)
			marks = append(marks, env.Now())
		}
	})
	env.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("mark[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	env := NewEnv()
	ran := false
	env.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		ran = true
	})
	env.Run()
	if !ran || env.Now() != 0 {
		t.Fatalf("ran=%v now=%v, want true, 0", ran, env.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.After(time.Second, func() { order = append(order, i) })
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestAfterAndAt(t *testing.T) {
	env := NewEnv()
	var seq []string
	env.At(2*time.Second, func() { seq = append(seq, "at2") })
	env.After(time.Second, func() { seq = append(seq, "after1") })
	env.Run()
	if len(seq) != 2 || seq[0] != "after1" || seq[1] != "at2" {
		t.Fatalf("seq = %v", seq)
	}
}

func TestTimerStop(t *testing.T) {
	env := NewEnv()
	fired := false
	tm := env.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	env.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		env.At(d, func() { fired = append(fired, d) })
	}
	env.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("clock %v, want 3s", env.Now())
	}
	env.Run()
	if len(fired) != 5 {
		t.Fatalf("after full Run fired %d, want 5", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	env := NewEnv()
	env.RunUntil(10 * time.Second)
	if env.Now() != 10*time.Second {
		t.Fatalf("clock %v, want 10s", env.Now())
	}
}

func TestEventBroadcast(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	got := make([]any, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Go("w", func(p *Proc) { got[i] = p.Wait(ev) })
	}
	env.Go("trigger", func(p *Proc) {
		p.Sleep(time.Second)
		ev.Trigger("payload")
	})
	env.Run()
	for i, v := range got {
		if v != "payload" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Trigger(42)
	var got any
	var at time.Duration
	env.Go("w", func(p *Proc) { got = p.Wait(ev); at = env.Now() })
	env.Run()
	if got != 42 || at != 0 {
		t.Fatalf("got %v at %v, want 42 at 0", got, at)
	}
}

func TestDoubleTriggerKeepsFirstValue(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Trigger("first")
	ev.Trigger("second")
	if ev.Value() != "first" {
		t.Fatalf("Value() = %v, want first", ev.Value())
	}
}

func TestSnapshotAndPending(t *testing.T) {
	env := NewEnv()
	tm := env.After(time.Second, func() {})
	env.After(2*time.Second, func() {})
	if env.Pending() != 2 || len(env.Snapshot()) != 2 {
		t.Fatalf("pending=%d snapshot=%v", env.Pending(), env.Snapshot())
	}
	tm.Stop()
	if env.Pending() != 1 {
		t.Fatalf("pending after cancel = %d", env.Pending())
	}
	env.Run()
	if env.Pending() != 0 {
		t.Fatal("pending after run")
	}
}

func TestTracerReceivesProcEvents(t *testing.T) {
	env := NewEnv()
	var lines int
	env.SetTracer(func(at time.Duration, format string, args ...any) { lines++ })
	env.Go("a", func(p *Proc) {
		p.Tracef("hello")
	})
	env.Run()
	if lines < 2 { // Tracef + proc-finished
		t.Fatalf("tracer lines = %d", lines)
	}
}

func TestQueueFIFO(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var got []int
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Errorf("Get returned !ok")
				return
			}
			got = append(got, v)
		}
	})
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i)
		}
	})
	env.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestQueueBufferedBeforeGet(t *testing.T) {
	env := NewEnv()
	q := NewQueue[string](env)
	q.Put("a")
	q.Put("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	var got []string
	env.Go("c", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, _ := q.Get(p)
			got = append(got, v)
		}
	})
	env.Run()
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueMultipleGettersServedFIFO(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		env.Go("g", func(p *Proc) {
			v, _ := q.Get(p)
			order = append(order, i*100+v)
		})
	}
	env.Go("p", func(p *Proc) {
		p.Sleep(time.Second)
		q.Put(0)
		q.Put(1)
		q.Put(2)
	})
	env.Run()
	want := []int{0, 101, 202}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueClose(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var ok bool
	var okDrain bool
	var drained int
	env.Go("g", func(p *Proc) { _, ok = q.Get(p) })
	env.Go("closer", func(p *Proc) {
		p.Sleep(time.Second)
		q.Put(9)
		q.Close()
	})
	env.Go("late", func(p *Proc) {
		p.Sleep(2 * time.Second)
		drained, okDrain = q.Get(p)
	})
	env.Run()
	if !ok {
		t.Fatal("first getter should have received the item put before Close")
	}
	if okDrain || drained != 0 {
		t.Fatalf("drain after close: got %d ok=%v, want !ok", drained, okDrain)
	}
}

func TestKillUnwinds(t *testing.T) {
	env := NewEnv()
	var cleaned bool
	var reached bool
	p1 := env.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
		reached = true
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(time.Second)
		p1.Kill(nil)
	})
	env.Run()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if reached {
		t.Fatal("killed proc continued past Sleep")
	}
	if !p1.Finished() {
		t.Fatal("killed proc not finished")
	}
	if env.Now() != time.Second {
		t.Fatalf("clock %v, want 1s (kill should cancel the pending sleep wake)", env.Now())
	}
}

func TestKillReasonDelivered(t *testing.T) {
	env := NewEnv()
	boom := errors.New("boom")
	victim := env.Go("victim", func(p *Proc) { p.Sleep(time.Hour) })
	env.Go("k", func(p *Proc) { p.Sleep(time.Second); victim.Kill(boom) })
	env.Run()
	if !victim.Finished() || !errors.Is(victim.killErr, boom) {
		t.Fatalf("finished=%v reason %v, want boom", victim.Finished(), victim.killErr)
	}
}

func TestKillDefaultReason(t *testing.T) {
	env := NewEnv()
	victim := env.Go("victim", func(p *Proc) { p.Sleep(time.Hour) })
	env.Go("k", func(p *Proc) { victim.Kill(nil) })
	env.Run()
	if !victim.Finished() || !errors.Is(victim.killErr, ErrKilled) {
		t.Fatalf("finished=%v reason %v, want ErrKilled", victim.Finished(), victim.killErr)
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	env := NewEnv()
	p1 := env.Go("quick", func(p *Proc) {})
	env.Go("k", func(p *Proc) { p.Sleep(time.Second); p1.Kill(nil) })
	env.Run()
	if !p1.Finished() || p1.killErr != nil {
		t.Fatalf("finished=%v err=%v", p1.Finished(), p1.killErr)
	}
}

func TestKillWaiterOnQueue(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var got bool
	victim := env.Go("victim", func(p *Proc) { _, got = q.Get(p) })
	env.Go("k", func(p *Proc) { p.Sleep(time.Second); victim.Kill(nil) })
	env.Go("late-put", func(p *Proc) {
		p.Sleep(2 * time.Second)
		q.Put(5) // must not panic or wake the dead victim
	})
	env.Run()
	if got {
		t.Fatal("killed getter received a value")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (item must stay buffered, not vanish into the dead waiter)", q.Len())
	}
}

func TestSpawnDuringRun(t *testing.T) {
	env := NewEnv()
	var childRan bool
	env.Go("parent", func(p *Proc) {
		p.Sleep(time.Second)
		done := NewEvent(env)
		env.Go("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
			done.Trigger(nil)
		})
		p.Wait(done)
		if env.Now() != 2*time.Second {
			t.Errorf("parent resumed at %v, want 2s", env.Now())
		}
	})
	env.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestLiveCount(t *testing.T) {
	env := NewEnv()
	env.Go("a", func(p *Proc) { p.Sleep(time.Second) })
	env.Go("b", func(p *Proc) { p.Sleep(2 * time.Second) })
	if env.Live() != 2 {
		t.Fatalf("Live = %d, want 2", env.Live())
	}
	env.Run()
	if env.Live() != 0 {
		t.Fatalf("Live = %d, want 0", env.Live())
	}
}

func TestYield(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		p.Yield()
		order = append(order, "a")
	})
	env.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	env.Run()
	// a yields, letting b (queued at the same instant) run first.
	if order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var log []string
		q := NewQueue[int](env)
		for i := 0; i < 5; i++ {
			i := i
			env.Go("prod", func(p *Proc) {
				p.Sleep(time.Duration(i%3) * time.Second)
				q.Put(i)
			})
			env.Go("cons", func(p *Proc) {
				v, _ := q.Get(p)
				log = append(log, string(rune('a'+v)))
			})
		}
		env.Run()
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run1=%v run2=%v diverged at %d", a, b, i)
		}
	}
}

func TestBlockingFromWrongContextPanics(t *testing.T) {
	env := NewEnv()
	var p1 *Proc
	p1 = env.Go("a", func(p *Proc) { p.Sleep(time.Second) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p1.Sleep(time.Second) // blocking call from the test goroutine: must panic
}
