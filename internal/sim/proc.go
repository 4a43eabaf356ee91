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
	// sleeping marks a park in Sleep, whose wake is the item at wakeSlot
	// with generation wakeGen (a mismatch means it fired and the slot was
	// recycled); Kill cancels it so a dead proc cannot drag the virtual
	// clock forward. Every resume clears the mark.
	sleeping bool
	wakeSlot uint32
	wakeGen  uint32
}

// Env returns the environment the proc runs in.
func (p *Proc) Env() *Env { return p.env }

func (p *Proc) String() string { return fmt.Sprintf("proc#%d(%s)", p.id, p.name) }

// Finished reports whether the proc body has returned or been unwound.
func (p *Proc) Finished() bool { return p.finished }

// Killed reports whether Kill has been requested. Long-running procs that
// loop without blocking should poll this and return voluntarily.
func (p *Proc) Killed() bool { return p.killed }

// park hands control back to the scheduler and blocks until resumed. On
// resume it honours a pending kill by unwinding the stack.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		// The coroutine's consumer was stopped; unwind like a kill.
		panic(killSignal{})
	}
	p.sleeping = false
	if p.killed {
		panic(killSignal{})
	}
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
	p.wakeSlot, p.wakeGen = p.env.enqueue(p.env.now+d, p, nil)
	p.sleeping = true
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
	if p.sleeping {
		if it := &p.env.items[p.wakeSlot]; it.gen == p.wakeGen && !it.cancelled {
			p.env.cancelItem(p.wakeSlot)
		}
		p.sleeping = false
	}
	// Wake it so the unwind happens promptly even if it was parked on a
	// queue or event, where producers now skip its entry as stale.
	p.env.enqueue(p.env.now, p, nil)
}
