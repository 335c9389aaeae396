package link

// ringFirst bounds the first allocation of a ring. Every depth the
// simulator configures (link and vault buffers of a few packets) fits,
// so those rings allocate exactly once, at full depth; only an
// unusually deep scenario buffer grows past it, by doubling, as its
// occupancy actually rises.
const ringFirst = 64

// ring is a bounded FIFO over a circular buffer. The backing array is
// allocated on the first push (so building a network costs nothing per
// queue) and reused from then on, so a steady-state push/pop never
// allocates. Popped slots are zeroed so the ring does not keep a
// delivered packet alive. Callers enforce the depth bound (and report
// overflow in their own terms) before pushing.
type ring[T any] struct {
	buf   []T
	head  int
	n     int
	depth int
}

func newRing[T any](depth int) ring[T] { return ring[T]{depth: depth} }

// len reports the occupancy.
func (r *ring[T]) len() int { return r.n }

// full reports whether the ring holds depth entries.
func (r *ring[T]) full() bool { return r.n >= r.depth }

// push appends v at the tail. The caller has checked full.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// grow re-allocates the backing array, doubling it up to depth, and
// unwraps the live entries to its front.
func (r *ring[T]) grow() {
	buf := make([]T, min(max(2*len(r.buf), ringFirst), r.depth))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// front returns the oldest entry. The ring must be non-empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// pop removes and returns the oldest entry. The ring must be non-empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}
