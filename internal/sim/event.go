package sim

// waiter is one parked proc waiting on an Event. Waiters are pooled on the
// Env; the generation counter invalidates stale references left behind in
// waiter lists after the proc resumed elsewhere.
type waiter struct {
	p   *Proc
	gen uint32
	val any
}

// waiterRef is a generation-stamped reference held in a waiter list. The
// waiter itself may be recycled (and re-issued to another proc) while the
// reference lingers; the gen check detects that.
type waiterRef struct {
	w   *waiter
	gen uint32
}

// stale reports whether this entry must be skipped by producers: the waiter
// was recycled or its proc died while parked.
func (r waiterRef) stale() bool {
	w := r.w
	return w.gen != r.gen || w.p.killed || w.p.finished
}

// waiter pool -------------------------------------------------------------

func (env *Env) newWaiter(p *Proc) *waiter {
	if n := len(env.freeWaiters); n > 0 {
		w := env.freeWaiters[n-1]
		env.freeWaiters[n-1] = nil
		env.freeWaiters = env.freeWaiters[:n-1]
		w.p = p
		return w
	}
	return &waiter{p: p}
}

// recycleWaiter returns w to the pool, bumping the generation so lingering
// waiterRefs become stale. Only the normal resume path recycles; a
// kill-unwound proc leaks its waiter to the GC, which is safe.
func (env *Env) recycleWaiter(w *waiter) {
	w.gen++
	w.p = nil
	w.val = nil
	env.freeWaiters = append(env.freeWaiters, w)
}

// Event is a one-shot broadcast condition with an attached value. Waiting on
// an already-triggered event returns immediately with the stored value, so
// events double as promises/futures.
type Event struct {
	env     *Env
	fired   bool
	val     any
	waiters []waiterRef
	pruneAt int          // amortized sweep threshold for stale refs
	one     [1]waiterRef // waiters' first backing array: most events have one waiter
}

// NewEvent returns an untriggered event bound to env.
func NewEvent(env *Env) *Event {
	e := &Event{env: env}
	e.waiters = e.one[:0]
	return e
}

// Reset returns a fired event to the untriggered state so its owner can
// reuse it as a fresh one-shot instead of allocating a new Event. The caller
// must own the event's full lifecycle: every Wait on the previous firing
// must have returned, and no one may hold the old Event expecting it to stay
// fired. Stale waiter references (procs killed while parked here) are
// swept; resetting an event with live parked waiters would strand them, so
// that panics.
func (e *Event) Reset() {
	if len(e.waiters) != 0 {
		for _, r := range e.waiters {
			if !r.stale() {
				panic("sim: Reset of an Event with parked waiters")
			}
		}
		for i := range e.waiters {
			e.waiters[i] = waiterRef{}
		}
		e.waiters = e.waiters[:0]
	}
	e.fired = false
	e.val = nil
}

// register appends a waiter reference, sweeping stale refs (from kills) once
// they could dominate the list, so an event whose waiters keep being killed
// does not grow without bound.
func (e *Event) register(w *waiter) {
	if len(e.waiters) >= 8 && len(e.waiters) >= e.pruneAt {
		live := e.waiters[:0]
		for _, r := range e.waiters {
			if !r.stale() {
				live = append(live, r)
			}
		}
		for i := len(live); i < len(e.waiters); i++ {
			e.waiters[i] = waiterRef{}
		}
		e.waiters = live
		e.pruneAt = 2 * (len(live) + 8)
	}
	e.waiters = append(e.waiters, waiterRef{w: w, gen: w.gen})
}

// Trigger fires the event, waking every waiter with val. Triggering an
// already-fired event is a no-op, so racing producers are safe.
func (e *Event) Trigger(val any) {
	if e.fired {
		return
	}
	e.fired = true
	e.val = val
	for i, r := range e.waiters {
		if !r.stale() {
			r.w.val = val
			e.env.enqueue(e.env.now, r.w.p, nil)
		}
		e.waiters[i] = waiterRef{}
	}
	e.waiters = e.waiters[:0]
	e.pruneAt = 0
}

// Wait parks p until the event fires and returns the trigger value.
func (p *Proc) Wait(e *Event) any {
	p.checkRunning()
	if e.fired {
		return e.val
	}
	w := p.env.newWaiter(p)
	e.register(w)
	p.park()
	v := w.val
	p.env.recycleWaiter(w)
	return v
}
