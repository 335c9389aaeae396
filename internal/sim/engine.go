package sim

import (
	"fmt"
	"math/bits"
)

// Handler is a callback invoked when an event fires. The engine's current
// time equals the event's scheduled time for the duration of the call.
type Handler func()

// ArgHandler is a callback invoked with a caller-supplied argument. It
// exists so hot paths can store one bound callback per component (built
// once at construction) and pass the varying operand — typically a
// *packet.Packet — through the event itself, instead of allocating a
// fresh closure per Schedule call. Boxing a pointer into the arg is
// allocation-free.
type ArgHandler func(arg any)

// event is a scheduled callback. Exactly one of fn/afn is set.
type event struct {
	at  Time
	fn  Handler
	afn ArgHandler
	arg any
}

// node is one slot of the radix queue's node slice: a pending event and
// the index of the next node in its bucket (or in the free list).
// Index 0 is a sentinel, so 0 means "none".
type node struct {
	event
	next int32
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is ready to use. An Engine is not safe for concurrent
// use; memnet simulations are deterministic single-goroutine programs and
// parallelism, when wanted, is obtained by running independent Engines
// (e.g. one per memory port, or one per benchmark configuration).
//
// Events fire in (time, scheduling order): equal-time events run in the
// order they were scheduled, which makes whole-system simulations
// deterministic. Internally the engine keeps two structures:
//
//   - a monotone radix heap for future events. Bucket k holds the
//     pending events whose time first differs from last (the time of
//     the last refill) in bit k-1; bucket 0 holds time == last. Buckets
//     are FIFO lists threaded through one node slice. A push appends to
//     its bucket in O(1); when bucket 0 runs dry, the lowest non-empty
//     bucket is scanned for its minimum time, which becomes last, and
//     its events are relinked, in order, into the lower buckets (all
//     empty). Equal-time events always share a bucket and no bucket is
//     ever reordered, so the queue fires them in scheduling order
//     without a sequence counter. Popped nodes are zeroed so handlers
//     and packets stay GC-able.
//
//   - a zero-delay FIFO "fast lane" (a ring buffer) holding events
//     scheduled for the current instant. Same-timestamp follow-on events
//     — the dominant pattern in router/link/vault handoffs — enqueue and
//     dequeue in O(1) without touching the radix heap at all.
//
// Bucket-0 events are at the current instant and were scheduled before
// the clock reached it, so they precede every lane event (which was
// scheduled at the instant itself): bucket 0 drains before the lane.
type Engine struct {
	now   Time
	fired uint64

	// Radix heap: last is the time of the last refill, mask bit k marks
	// a non-empty bucket k, and first/tail are the bucket lists' end
	// nodes. free heads the list of recycled nodes; queued counts the
	// events in the buckets.
	last        Time
	mask        uint64
	first, tail [64]int32
	nodes       []node
	free        int32
	queued      int

	// lane is the zero-delay ring buffer; capacity is a power of two.
	lane     []event
	laneHead int
	laneLen  int

	// probe is the telemetry sampling hook: it runs at every multiple
	// of probeEvery the clock crosses, between events, without being an
	// event itself — probes never enter the queue and never count
	// toward fired, so arming one cannot change what the simulation
	// does or reports. Probes are read-only observers: scheduling from
	// inside one panics.
	probe      func(at Time)
	probeEvery Time
	probeAt    Time
	inProbe    bool
}

// NewEngine returns an engine with its clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far. It is useful
// for cheap progress accounting and loop-guard assertions in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queued + e.laneLen }

// Schedule arranges for fn to run after delay. A zero delay schedules the
// event at the current time; it will still run after the currently
// executing event returns (events never preempt each other).
func (e *Engine) Schedule(delay Time, fn Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t, which must not be in the
// past.
func (e *Engine) At(t Time, fn Handler) {
	if fn == nil {
		panic("sim: nil handler")
	}
	e.enqueue(t, event{fn: fn})
}

// ScheduleArg is Schedule for a bound ArgHandler: fn(arg) runs after
// delay. Reusing one stored fn across calls keeps the hot path
// allocation-free.
func (e *Engine) ScheduleArg(delay Time, fn ArgHandler, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtArg(e.now+delay, fn, arg)
}

// AtArg is At for a bound ArgHandler: fn(arg) runs at absolute time t.
func (e *Engine) AtArg(t Time, fn ArgHandler, arg any) {
	if fn == nil {
		panic("sim: nil handler")
	}
	e.enqueue(t, event{afn: fn, arg: arg})
}

// SetProbe arms fn to run at every multiple of every that the clock
// reaches or crosses, starting at the first multiple after the current
// time. The probe is not an event: it fires between events as time
// advances, adds nothing to the queue, and leaves Fired and the event
// order untouched, so results are bit-identical with and without a
// probe. fn must only observe: calling Schedule/At from inside it
// panics. A nil fn disarms.
func (e *Engine) SetProbe(every Time, fn func(at Time)) {
	if fn == nil {
		e.probe = nil
		return
	}
	if every <= 0 {
		panic(fmt.Sprintf("sim: non-positive probe interval %v", every))
	}
	e.probe = fn
	e.probeEvery = every
	e.probeAt = (e.now/every + 1) * every
}

// runProbe fires the probe at every pending boundary up to and
// including upTo. The clock reads each boundary instant during its
// call, then the caller advances it to the event time.
func (e *Engine) runProbe(upTo Time) {
	e.inProbe = true
	for e.probeAt <= upTo {
		e.now = e.probeAt
		e.probe(e.probeAt)
		e.probeAt += e.probeEvery
	}
	e.inProbe = false
}

// enqueue routes the event to the fast lane (same-instant) or the
// radix heap (future).
func (e *Engine) enqueue(t Time, ev event) {
	if e.inProbe {
		panic("sim: scheduling from inside a probe")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < now %v", t, e.now))
	}
	ev.at = t
	if t == e.now {
		e.lanePush(ev)
		return
	}
	e.push(ev)
}

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (e *Engine) Step() bool {
	var ev event
	switch {
	case e.mask&1 != 0:
		// Bucket 0 is at the current instant and predates every lane
		// event; drain it first.
		ev = e.pop()
	case e.laneLen > 0:
		ev = e.lanePop()
	case e.mask != 0:
		e.refill()
		ev = e.pop()
		if e.probe != nil && ev.at >= e.probeAt {
			e.runProbe(ev.at)
		}
		e.now = ev.at
	default:
		return false
	}
	e.fired++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.afn(ev.arg)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunWhile executes events while cond() remains true and events remain.
// cond is evaluated before each event. It returns true if the run stopped
// because cond became false (as opposed to the queue draining).
func (e *Engine) RunWhile(cond func() bool) bool {
	for cond() {
		if !e.Step() {
			return false
		}
	}
	return true
}

// --- monotone radix heap ---------------------------------------------

// push stores ev in a node (recycled if one is free) and appends it to
// the bucket of its time.
func (e *Engine) push(ev event) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, node{}) // sentinel: index 0 is "none"
		}
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	e.nodes[i].event = ev
	e.queued++
	e.link(bits.Len64(uint64(ev.at^e.last)), i)
}

// link appends node i to bucket k. A list ends at its tail; the tail's
// next is never read.
func (e *Engine) link(k int, i int32) {
	if e.mask&(1<<k) == 0 {
		e.mask |= 1 << k
		e.first[k] = i
	} else {
		e.nodes[e.tail[k]].next = i
	}
	e.tail[k] = i
}

// pop unlinks the head of bucket 0, zeroes its node so the handler and
// its argument are not pinned, and returns the node to the free list.
func (e *Engine) pop() event {
	i := e.first[0]
	n := &e.nodes[i]
	ev := n.event
	n.event = event{}
	if i == e.tail[0] {
		e.mask &^= 1
	} else {
		e.first[0] = n.next
	}
	n.next = e.free
	e.free = i
	e.queued--
	return ev
}

// refill is called with bucket 0 empty and some bucket non-empty. It
// makes the lowest non-empty bucket's minimum time the new last and
// relinks that bucket's events, in order, into the buckets below it,
// which are all empty. Buckets above it keep their meaning: their
// events differ from the new last in the same bit as from the old.
func (e *Engine) refill() {
	k := bits.TrailingZeros64(e.mask)
	head, end := e.first[k], e.tail[k]
	m := e.nodes[head].at
	for i := head; i != end; {
		i = e.nodes[i].next
		if at := e.nodes[i].at; at < m {
			m = at
		}
	}
	e.last = m
	e.mask &^= 1 << k
	for i := head; ; {
		next := e.nodes[i].next
		e.link(bits.Len64(uint64(e.nodes[i].at^m)), i)
		if i == end {
			return
		}
		i = next
	}
}

// --- zero-delay fast lane (ring buffer) ------------------------------

func (e *Engine) lanePush(ev event) {
	if e.laneLen == len(e.lane) {
		e.laneGrow()
	}
	e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)] = ev
	e.laneLen++
}

func (e *Engine) lanePop() event {
	ev := e.lane[e.laneHead]
	e.lane[e.laneHead] = event{} // keep the fired closure GC-able
	e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
	e.laneLen--
	return ev
}

// laneGrow doubles the ring (minimum 16 slots), unrolling it to the
// front of the new buffer.
func (e *Engine) laneGrow() {
	size := len(e.lane) * 2
	if size < 16 {
		size = 16
	}
	buf := make([]event, size)
	for i := 0; i < e.laneLen; i++ {
		buf[i] = e.lane[(e.laneHead+i)&(len(e.lane)-1)]
	}
	e.lane = buf
	e.laneHead = 0
}
