// Package sim provides a deterministic, process-based discrete-event
// simulation kernel in the style of SimPy.
//
// Every component of the simulated cluster (kubelets, schedulers, container
// entrypoints, token managers, workload generators) runs as a Proc: a
// coroutine whose execution is strictly interleaved by the Env scheduler so
// that exactly one proc runs at any instant. Blocking operations (Sleep,
// Event.Wait, Queue.Get, Resource.Acquire) hand control back to the
// scheduler, which advances virtual time to the next pending event. The
// result is a concurrent programming model with fully deterministic,
// seed-reproducible executions — hours of simulated cluster time complete in
// milliseconds of real time.
//
// The kernel is intentionally free of wall-clock dependencies; virtual time
// is a time.Duration offset from the simulation epoch.
//
// There is one event queue, ordered by (instant, seq) with seq a single
// counter assigned at schedule time. It is split three ways, all holding
// pointer-free 24-byte entries so queue maintenance never triggers write
// barriers:
//
//   - a FIFO ring for events scheduled at the current instant — the dominant
//     case: every proc wakeup, Queue.Put handoff and Event.Trigger;
//   - a one-entry head register caching the earliest future event, so the
//     common schedule-one/fire-one timer pattern never touches the heap;
//   - a 4-ary min-heap keyed by (time, seq) for the rest.
//
// Entries reference pooled item slots carrying the callback/proc pointers
// and a generation counter (for safe Timer cancellation), so steady-state
// scheduling allocates nothing.
//
// Multi-core throughput comes from running independent environments side by
// side (one Env per goroutine), never from inside one: an Env has no
// internal parallelism.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"time"
)

// entry is one scheduled event. It is pointer-free by design: entries are
// copied around the ring and heap constantly, and pointer fields would make
// every copy pay GC write barriers.
type entry struct {
	t    time.Duration
	seq  uint64 // FIFO tie-break among events with equal t
	slot uint32 // index into the item slab
}

// item is a pooled event payload: what to run (exactly one of proc/fn is
// set) plus cancellation state. The generation counter makes recycled slots
// safe: a Timer remembers the gen it was issued with, and any mismatch means
// the event already fired and the slot now belongs to someone else.
type item struct {
	proc      *Proc  // wake (dispatch) this proc ...
	fn        func() // ... or run this callback
	gen       uint32
	cancelled bool
	inHeap    bool // the entry sits in the heap (not ring or head register)
}

// entryLess orders events by (instant, seq). seq is unique, so this is a
// total order: a fixed seed yields a byte-identical event order.
func entryLess(a, b *entry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Env is a simulation environment: a virtual clock plus an event queue. An
// Env and everything attached to it must be driven from a single goroutine
// (the one calling Run/RunUntil/Step); the kernel provides the interleaving,
// not the Go scheduler.
type Env struct {
	now time.Duration
	// ring holds events scheduled for the current instant, in FIFO order.
	// Invariant: every ring entry has t == now (the ring drains before the
	// clock advances), and ring order agrees with seq order.
	ring fifo[entry]
	// head caches one future event — typically the earliest — so the
	// schedule-one/fire-one pattern bypasses the heap. Correctness does not
	// depend on head being the minimum: pops take the minimum of all fronts.
	head      entry
	headValid bool
	// heap is a 4-ary min-heap of future events keyed by (t, seq).
	heap          []entry
	heapCancelled int      // cancelled entries still buried in the heap
	items         []item   // slot-addressed event payloads
	freeSlots     []uint32 // recycled item slots

	pending       int // live (non-cancelled) scheduled events
	daemonPending int // the subset of pending that wakes daemon procs
	seq           uint64
	freeWaiters   []*waiter
	current       *Proc // proc currently executing, nil when the scheduler runs
	live          int   // procs that have started and not yet finished
	nextPID       int
	running       bool
	tracer        func(t time.Duration, format string, args ...any)
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time as an offset from the simulation epoch.
func (env *Env) Now() time.Duration { return env.now }

// SetTracer installs a trace sink invoked by Proc.Tracef and internal
// lifecycle points. A nil tracer (the default) disables tracing.
func (env *Env) SetTracer(fn func(t time.Duration, format string, args ...any)) {
	env.tracer = fn
}

func (env *Env) tracef(format string, args ...any) {
	if env.tracer != nil {
		env.tracer(env.now, format, args...)
	}
}

// scheduling --------------------------------------------------------------

// enqueue schedules an event at absolute time t (clamped to now) and returns
// its slot and generation. Entries at the current instant go to the FIFO
// ring; future entries go to the head register or the heap.
func (env *Env) enqueue(t time.Duration, proc *Proc, fn func()) (uint32, uint32) {
	slot := env.newSlot()
	it := &env.items[slot]
	// Payload pointers are cleared here, on reuse, rather than in recycle:
	// when a slot is reused for the same kind of event (the dominant pattern —
	// timer after timer, wakeup after wakeup) the overwrite below is the only
	// GC write barrier the whole schedule/fire cycle pays. The cost is that a
	// free slot pins its last payload until its next tenant arrives; the free
	// list is bounded by peak event concurrency, so the retention is too.
	if proc != nil {
		it.proc = proc
		if it.fn != nil {
			it.fn = nil
		}
	} else {
		it.fn = fn
		if it.proc != nil {
			it.proc = nil
		}
	}
	gen := it.gen
	if t < env.now {
		t = env.now
	}
	env.seq++
	env.pending++
	if proc != nil && proc.daemon {
		env.daemonPending++
	}
	e := entry{t: t, seq: env.seq, slot: slot}
	switch {
	case t == env.now:
		env.ring.push(e)
	case !env.headValid:
		env.head = e
		env.headValid = true
	case entryLess(&e, &env.head):
		env.demoteHead()
		env.head = e
	default:
		it.inHeap = true
		env.heapPush(e)
	}
	return slot, gen
}

// cancelItem lazily cancels a scheduled entry's payload. Ring and head
// entries are skipped at pop time; heap entries are counted and compacted
// away once they outnumber the live ones.
func (env *Env) cancelItem(slot uint32) {
	it := &env.items[slot]
	it.cancelled = true
	env.pending--
	if it.proc != nil && it.proc.daemon {
		env.daemonPending--
	}
	if it.inHeap {
		env.heapCancelled++
		if env.heapCancelled >= 32 && env.heapCancelled*2 > len(env.heap) {
			env.compact()
		}
	}
}

// After schedules fn to run after delay d of virtual time. It returns a
// Timer whose Stop method cancels the callback if it has not yet fired.
func (env *Env) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return env.timerAt(env.now+d, fn)
}

// At schedules fn at absolute virtual time t (clamped to the present).
func (env *Env) At(t time.Duration, fn func()) Timer {
	return env.timerAt(t, fn)
}

func (env *Env) timerAt(t time.Duration, fn func()) Timer {
	slot, gen := env.enqueue(t, nil, fn)
	return Timer{env: env, slot: slot, gen: gen}
}

// Timer is a handle to a scheduled callback. The zero Timer is inert: Stop
// and Active return false.
type Timer struct {
	env  *Env
	slot uint32
	gen  uint32
}

// Stop cancels the timer. It reports whether the callback was still pending.
func (tm Timer) Stop() bool {
	if tm.env == nil {
		return false
	}
	it := &tm.env.items[tm.slot]
	if it.gen != tm.gen || it.cancelled {
		return false
	}
	tm.env.cancelItem(tm.slot)
	return true
}

// Active reports whether the callback is still pending: not yet fired and
// not stopped. Inside the firing callback itself Active is already false.
func (tm Timer) Active() bool {
	if tm.env == nil {
		return false
	}
	it := &tm.env.items[tm.slot]
	return it.gen == tm.gen && !it.cancelled
}

// event selection ---------------------------------------------------------

const (
	srcNone = iota
	srcRing
	srcHead
	srcHeap
)

// front locates the earliest pending entry as the minimum over the ring,
// head register and heap fronts.
func (env *Env) front() (src int, e *entry) {
	if env.ring.n > 0 {
		src, e = srcRing, env.ring.peek()
	}
	if env.headValid && (src == srcNone || entryLess(&env.head, e)) {
		src, e = srcHead, &env.head
	}
	if len(env.heap) > 0 && (src == srcNone || entryLess(&env.heap[0], e)) {
		src, e = srcHeap, &env.heap[0]
	}
	return src, e
}

// popFront removes the entry front just located in src.
func (env *Env) popFront(src int) {
	switch src {
	case srcRing:
		env.ring.popRaw()
	case srcHead:
		env.headValid = false
	default:
		env.heapPop()
	}
}

// Go spawns fn as a new simulation process that begins executing at the
// current virtual time (after the caller yields). The name appears in traces
// and String output.
//
// Procs are coroutines (iter.Pull), not plain goroutines: park/dispatch is a
// direct coroutine switch with no Go-scheduler round trip, which is the
// difference between ~100ns and ~650ns per virtual context switch.
func (env *Env) Go(name string, fn func(p *Proc)) *Proc {
	return env.spawn(name, fn, false)
}

// GoDaemon is Go for periodic background loops (heartbeats, lifecycle
// sweeps) that must not keep Run alive: the proc's wakeups fire normally
// while non-daemon work is pending, but a queue holding only daemon wakeups
// counts as quiescent. Daemons parked on queues or events behave exactly
// like normal procs — the flag only affects scheduled wakeups (Sleep).
func (env *Env) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return env.spawn(name, fn, true)
}

func (env *Env) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	env.nextPID++
	p := &Proc{
		env:    env,
		id:     env.nextPID,
		name:   name,
		daemon: daemon,
	}
	env.live++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSignal); !ok {
					panic(r) // real panic in user code: propagate
				}
			}
			p.finished = true
			// Whoever still holds the *Proc must not pin the coroutine and
			// everything its body captured (dispatch and Kill stop at finished).
			p.next, p.yield = nil, nil
			env.live--
			env.tracef("proc %s finished", p.name)
		}()
		if p.killed { // killed before first execution
			panic(killSignal{})
		}
		fn(p)
	})
	env.enqueue(env.now, p, nil)
	return p
}

// dispatch hands the CPU to p until it parks or finishes.
func (env *Env) dispatch(p *Proc) {
	if p.finished {
		return
	}
	prev := env.current
	env.current = p
	p.next()
	env.current = prev
}

// Step executes the single earliest pending event — the (instant, seq)
// minimum. It reports whether an event was executed (false means the queue
// is empty).
func (env *Env) Step() bool {
	for {
		src, f := env.front()
		if src == srcNone {
			return false
		}
		e := *f
		env.popFront(src)
		it := &env.items[e.slot]
		if it.cancelled {
			if it.inHeap {
				env.heapCancelled--
			}
			env.recycle(e.slot)
			continue
		}
		proc, fn := it.proc, it.fn
		// Recycle before running, so a Timer queried from inside its own
		// callback reports inactive.
		env.recycle(e.slot)
		env.pending--
		if proc != nil && proc.daemon {
			env.daemonPending--
		}
		if e.t > env.now {
			env.now = e.t
		}
		if proc != nil {
			env.dispatch(proc)
		} else {
			fn()
		}
		return true
	}
}

// Run executes events until no non-daemon event remains. Procs blocked
// forever (for example servers waiting on request queues) do not keep Run
// alive; like SimPy, the simulation ends when no future event exists.
// Daemon procs (GoDaemon) — periodic background loops like node heartbeats
// — likewise do not keep Run alive: their wakeups still fire in time order
// while real work is pending, but once only daemon wakeups remain the
// simulation is quiescent and Run returns.
func (env *Env) Run() {
	env.running = true
	for env.pending > env.daemonPending && env.Step() {
	}
	env.running = false
}

// RunUntil executes events with time ≤ t and then sets the clock to t.
func (env *Env) RunUntil(t time.Duration) {
	env.running = true
	for env.peekTime() <= t {
		env.Step()
	}
	if env.now < t {
		env.now = t
	}
	env.running = false
}

// peekTime returns the time of the earliest live event, dropping cancelled
// fronts on the way, or a value past any horizon when nothing is pending.
func (env *Env) peekTime() time.Duration {
	for {
		src, e := env.front()
		if src == srcNone {
			return 1<<63 - 1
		}
		it := &env.items[e.slot]
		if !it.cancelled {
			return e.t
		}
		slot := e.slot
		env.popFront(src)
		if it.inHeap {
			env.heapCancelled--
		}
		env.recycle(slot)
	}
}

// Pending returns the number of live (non-cancelled) events in the queue.
func (env *Env) Pending() int { return env.pending }

// Live returns the number of procs that have started and not yet finished.
func (env *Env) Live() int { return env.live }

// Snapshot returns a sorted description of pending events, for debugging
// stuck simulations.
func (env *Env) Snapshot() []string {
	var out []string
	add := func(e *entry) {
		if env.items[e.slot].cancelled {
			return
		}
		out = append(out, fmt.Sprintf("t=%v seq=%d", e.t, e.seq))
	}
	for i := 0; i < env.ring.n; i++ {
		add(env.ring.at(i))
	}
	if env.headValid {
		add(&env.head)
	}
	for i := range env.heap {
		add(&env.heap[i])
	}
	sort.Strings(out)
	return out
}
