package sim

// qwaiter is a parked getter. It plays the role of waiter but stores the
// delivered value with its static type, so handing an item to a getter never
// boxes it into an interface. Instances are pooled per queue.
type qwaiter[T any] struct {
	p   *Proc
	gen uint32
	ok  bool
	val T
}

// qref is a generation-stamped reference to a pooled qwaiter, held in the
// getter ring; see waiterRef for the staleness rules.
type qref[T any] struct {
	qw  *qwaiter[T]
	gen uint32
}

func (r qref[T]) stale() bool {
	qw := r.qw
	return qw.gen != r.gen || qw.p.killed || qw.p.finished
}

// Queue is an unbounded FIFO channel between procs. Put never blocks; Get
// parks the caller until an item is available. Items are delivered in
// arrival order and getters are served in arrival order.
//
// If a parked getter is Killed after an item has been assigned to it but
// before it resumes, that item is dropped — the same semantics as a message
// delivered to a dead process.
type Queue[T any] struct {
	env     *Env
	items   fifo[T]
	getters fifo[qref[T]]
	free    []*qwaiter[T]
	pruneAt int // amortized sweep threshold for stale getter refs
	closed  bool
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] { return &Queue[T]{env: env} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

func (q *Queue[T]) newWaiter(p *Proc) *qwaiter[T] {
	if n := len(q.free); n > 0 {
		qw := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		qw.p = p
		return qw
	}
	return &qwaiter[T]{p: p}
}

func (q *Queue[T]) recycleWaiter(qw *qwaiter[T]) {
	var zero T
	qw.gen++
	qw.p = nil
	qw.ok = false
	qw.val = zero
	q.free = append(q.free, qw)
}

// registerGetter parks bookkeeping for a getter, sweeping stale refs (from
// kills) once they could dominate the ring.
func (q *Queue[T]) registerGetter(qw *qwaiter[T]) {
	if q.getters.len() >= 8 && q.getters.len() >= q.pruneAt {
		q.getters.compact(func(r *qref[T]) bool { return !r.stale() })
		q.pruneAt = 2 * (q.getters.len() + 8)
	}
	q.getters.push(qref[T]{qw: qw, gen: qw.gen})
}

// Put appends v and wakes the oldest parked getter, if any. Put on a closed
// queue panics, mirroring send-on-closed-channel.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	for q.getters.len() > 0 {
		r := q.getters.pop()
		if r.stale() {
			continue // entry from a killed proc
		}
		qw := r.qw
		qw.val = v
		qw.ok = true
		q.env.enqueue(q.env.now, qw.p, nil)
		return
	}
	q.items.push(v)
}

// Close wakes every parked getter with ok=false. Buffered items remain
// retrievable via TryGet/Get until drained.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for q.getters.len() > 0 {
		r := q.getters.pop()
		if r.stale() {
			continue
		}
		qw := r.qw
		qw.ok = false
		q.env.enqueue(q.env.now, qw.p, nil)
	}
}

// TryGet pops the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Get pops the oldest item, parking p until one arrives. The second result
// is false only when the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (T, bool) {
	p.checkRunning()
	if v, ok := q.TryGet(); ok {
		return v, true
	}
	if q.closed {
		var zero T
		return zero, false
	}
	qw := q.newWaiter(p)
	q.registerGetter(qw)
	p.park()
	v, ok := qw.val, qw.ok
	q.recycleWaiter(qw)
	return v, ok
}
