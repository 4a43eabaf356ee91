package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current kernel")

// goldenScenario drives a small but representative simulation — timers,
// sleeps, queue handoffs, deadline checks, a two-slot semaphore, kills — and
// returns the full trace. The recorded golden was produced by the
// pre-optimization kernel (container/heap + slice shifts), so matching it
// proves the rewritten kernel preserves event ordering exactly. The kernel
// had timed waits and a counting semaphore then; the procs that used them
// keep their names and trace lines, rebuilt from Sleep, Queue and Event with
// the same wakeups at the same instants in the same order.
func goldenScenario() string {
	var b strings.Builder
	env := NewEnv()
	env.SetTracer(func(at time.Duration, format string, args ...any) {
		fmt.Fprintf(&b, "%v "+format+"\n", append([]any{at}, args...)...)
	})

	q := NewQueue[int](env)
	// A semaphore of two slots: a worker takes a token to run, returns it
	// after, and a worker that finds none parks until one is returned.
	tokens := NewQueue[struct{}](env)
	tokens.Put(struct{}{})
	tokens.Put(struct{}{})
	done := NewEvent(env)

	env.After(5*time.Millisecond, func() { env.tracef("timer-5ms") })
	stopped := env.After(7*time.Millisecond, func() { env.tracef("timer-7ms (must not fire)") })
	env.At(3*time.Millisecond, func() {
		env.tracef("timer-3ms stops timer-7ms: %v", stopped.Stop())
	})

	for i := 0; i < 3; i++ {
		i := i
		env.Go(fmt.Sprintf("producer-%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(time.Duration(i+1) * time.Millisecond)
				q.Put(i*10 + j)
				p.Tracef("put %d", i*10+j)
			}
		})
	}
	env.Go("consumer", func(p *Proc) {
		for k := 0; k < 12; k++ {
			v, ok := q.Get(p)
			p.Tracef("got %d ok=%v", v, ok)
		}
		done.Trigger("all-consumed")
	})
	// timeout-getter finds the queue empty at a 500µs deadline, and after a
	// pause parks on Get just before producer-0 hands it an item directly.
	env.Go("timeout-getter", func(p *Proc) {
		p.Sleep(500 * time.Microsecond)
		v, ok := q.TryGet()
		p.Tracef("timeout-get %d ok=%v", v, ok)
		p.Sleep(2500 * time.Microsecond)
		v, ok = q.Get(p)
		p.Tracef("timeout-get %d ok=%v", v, ok)
	})
	for _, name := range []string{"worker-a", "worker-b", "worker-c"} {
		name := name
		env.Go(name, func(p *Proc) {
			tokens.Get(p)
			p.Tracef("acquired")
			p.Sleep(4 * time.Millisecond)
			tokens.Put(struct{}{})
			p.Tracef("released")
		})
	}
	victim := env.Go("victim", func(p *Proc) {
		p.Sleep(time.Hour)
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(6 * time.Millisecond)
		victim.Kill(nil)
		p.Tracef("killed victim")
	})
	// waiter checks done at a 2ms deadline, then waits for it (it never
	// fires: timeout-getter takes one of the consumer's twelve items).
	env.Go("waiter", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		v := done.Value()
		p.Tracef("wait-1 %v %v", v, v != nil)
		v = p.Wait(done)
		p.Tracef("wait-2 %v", v)
	})
	env.Run()
	fmt.Fprintf(&b, "end now=%v pending=%d live=%d\n", env.Now(), env.Pending(), env.Live())
	return b.String()
}

// TestKernelGoldenTrace locks the event ordering of the kernel against the
// trace recorded from the pre-optimization implementation.
func TestKernelGoldenTrace(t *testing.T) {
	got := goldenScenario()
	path := filepath.Join("testdata", "kernel_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Fatalf("kernel trace diverged from the recorded golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// And the scenario itself must be deterministic run-to-run.
	if again := goldenScenario(); again != got {
		t.Fatalf("same-process rerun diverged:\n--- first ---\n%s\n--- second ---\n%s", got, again)
	}
}
