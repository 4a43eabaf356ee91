package sim

// fifo is a growable circular buffer used for every FIFO in the kernel: the
// same-instant event ring, queue items and queue getters.
// Unlike the `s = s[1:]` slice idiom it replaces, popping zeroes the vacated
// slot, so a drained fifo pins no delivered values, and the backing array is
// reused instead of crawling forward and re-allocating.
//
// The capacity is kept a power of two so position arithmetic is a mask, not
// a modulo.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

// len returns the number of buffered elements.
func (f *fifo[T]) len() int { return f.n }

// push appends v at the tail, growing the buffer when full.
func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// pop removes and returns the head element, zeroing its slot so the fifo
// does not keep the value alive.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// popRaw removes and returns the head element without zeroing the slot. Only
// valid for pointer-free element types (the event entry ring), where a stale
// copy in the buffer cannot pin heap objects.
func (f *fifo[T]) popRaw() T {
	v := f.buf[f.head]
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// peek returns a pointer to the head element without removing it. The fifo
// must be non-empty.
func (f *fifo[T]) peek() *T { return &f.buf[f.head] }

// compact drops elements for which keep returns false, preserving order.
// It cycles each element through pop/push once, so vacated slots are zeroed.
func (f *fifo[T]) compact(keep func(*T) bool) {
	for i, n := 0, f.n; i < n; i++ {
		v := f.pop()
		if keep(&v) {
			f.push(v)
		}
	}
}

func (f *fifo[T]) grow() {
	size := len(f.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]T, size)
	for i := 0; i < f.n; i++ {
		buf[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = buf
	f.head = 0
}
