package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrKilled is the error delivered to waiters of a proc that was terminated
// with Kill before its body returned.
var ErrKilled = errors.New("sim: proc killed")

// killSignal is panicked inside a killed proc to unwind its stack; the proc
// runner recovers it. User code must not recover it (re-panic if it does).
type killSignal struct{}

// procTimer is a generation-stamped reference to a pooled item slot; a gen
// mismatch means the event already fired and the slot was recycled.
type procTimer struct {
	slot uint32
	gen  uint32
}

// Proc is a simulation process: a coroutine whose execution is interleaved
// by the Env scheduler. All blocking methods must be called from the proc's
// own body (they park the calling proc).
type Proc struct {
	env  *Env
	id   int
	name string
	// next resumes the proc's worker coroutine until the body parks or
	// finishes; yield (valid once the body has started) suspends it back to
	// the scheduler.
	next     func() (struct{}, bool)
	yield    func(struct{}) bool
	finished bool
	killed   bool
	daemon   bool
	killErr  error
	// pending tracks scheduled items that would wake this proc from its
	// current park (sleep wakes, timeout timers); Kill cancels them so a
	// dead proc cannot drag the virtual clock forward. The list is cleared
	// on every resume, so it never grows past one park's worth of handles.
	pending []procTimer
}

// Env returns the environment the proc runs in.
func (p *Proc) Env() *Env { return p.env }

// ID returns the proc's unique id within its Env.
func (p *Proc) ID() int { return p.id }

func (p *Proc) String() string { return fmt.Sprintf("proc#%d(%s)", p.id, p.name) }

// Finished reports whether the proc body has returned or been unwound.
func (p *Proc) Finished() bool { return p.finished }

// Killed reports whether Kill has been requested. Long-running procs that
// loop without blocking should poll this and return voluntarily.
func (p *Proc) Killed() bool { return p.killed }

// Tracef emits a trace line through the environment's tracer, prefixed with
// the proc name.
func (p *Proc) Tracef(format string, args ...any) {
	if p.env.tracer != nil {
		p.env.tracef("[%s] "+format, append([]any{p.name}, args...)...)
	}
}

// park hands control back to the scheduler and blocks until resumed. On
// resume it honours a pending kill by unwinding the stack.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		// The coroutine's consumer was stopped; unwind like a kill.
		panic(killSignal{})
	}
	p.clearPending()
	if p.killed {
		panic(killSignal{})
	}
}

// clearPending drops wake handles from the park that just ended, zeroing the
// slots so the slice does not pin pooled items.
func (p *Proc) clearPending() {
	for i := range p.pending {
		p.pending[i] = procTimer{}
	}
	p.pending = p.pending[:0]
}

// checkRunning panics when a blocking primitive is invoked from outside the
// proc's own execution context; this always indicates a harness bug.
func (p *Proc) checkRunning() {
	if p.env.current != p {
		panic(fmt.Sprintf("sim: blocking call on %v from outside its context (current=%v)", p, p.env.current))
	}
	if p.killed {
		panic(killSignal{})
	}
}

// Sleep parks the proc for d of virtual time (negative durations count as
// zero).
func (p *Proc) Sleep(d time.Duration) {
	p.checkRunning()
	if d < 0 {
		d = 0
	}
	slot, gen := p.env.enqueue(p.env.now+d, p, nil)
	p.pending = append(p.pending, procTimer{slot: slot, gen: gen})
	p.park()
}

// Yield reschedules the proc at the current instant, letting every other
// event already queued for this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Hibernate parks the proc indefinitely; only Kill resumes (unwinds) it.
// Unlike a long Sleep loop, a hibernating proc schedules no events, so it
// does not keep Env.Run alive.
func (p *Proc) Hibernate() { p.Wait(NewEvent(p.env)) }

// Kill terminates the target proc: the next time it would run it unwinds
// instead, firing Done with reason (ErrKilled when reason is nil). Killing a
// finished proc is a no-op. A proc may not kill itself; it should return.
func (p *Proc) Kill(reason error) {
	if p.finished || p.killed {
		return
	}
	if reason == nil {
		reason = ErrKilled
	}
	p.killed = true
	p.killErr = reason
	if p.env.current == p {
		panic("sim: proc cannot Kill itself; return from its body instead")
	}
	for _, pt := range p.pending {
		it := &p.env.items[pt.slot]
		if it.gen == pt.gen && !it.cancelled {
			p.env.cancelItem(pt.slot)
		}
	}
	p.clearPending()
	// Wake it so the unwind happens promptly even if it was parked on a
	// queue or event; stale waiter entries are skipped via their woken flag.
	p.env.enqueue(p.env.now, p, nil)
}
