// Package a exercises poolcheck against the real packet and sim
// packages.
package a

import (
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Bad: reading a field after the packet went back to the pool.
func useAfterPut(pool *packet.Pool) uint64 {
	p := pool.Get()
	p.Addr = 64
	pool.Put(p)
	return p.Addr // want `use of packet p after it was released to the pool`
}

// Bad: double free — the second Put is itself a use of the freed packet.
func doubleFree(pool *packet.Pool) {
	p := pool.Get()
	pool.Put(p)
	pool.Put(p) // want `use of packet p after it was released to the pool`
}

// Bad: the packet escaped into a bound event callback that fires at a
// later simulated instant; releasing it now frees memory the callback
// will read.
func scheduledEscape(eng *sim.Engine, pool *packet.Pool, deliver sim.ArgHandler) {
	p := pool.Get()
	p.Addr = 128
	eng.ScheduleArg(5*sim.Nanosecond, deliver, p)
	pool.Put(p) // want `packet p is still bound to a scheduled event`
}

// Bad: same escape through an absolute-time binding.
func scheduledEscapeAt(eng *sim.Engine, pool *packet.Pool, deliver sim.ArgHandler) {
	p := pool.Get()
	eng.AtArg(eng.Now()+sim.Nanosecond, deliver, p)
	pool.Put(p) // want `packet p is still bound to a scheduled event`
}

// Good: the host-port idiom — copy the header fields, then release.
func copyThenPut(pool *packet.Pool) (packet.Kind, uint64) {
	p := pool.Get()
	kind, id := p.Kind, p.ID
	pool.Put(p)
	return kind, id
}

// Good: rebinding after Put starts a fresh ownership window.
func rebindAfterPut(pool *packet.Pool) uint64 {
	p := pool.Get()
	pool.Put(p)
	p = pool.Get()
	defer pool.Put(p)
	return p.Addr
}

// Good: schedule after the pool round-trip binds the fresh packet.
func scheduleFresh(eng *sim.Engine, pool *packet.Pool, deliver sim.ArgHandler) {
	p := pool.Get()
	pool.Put(p)
	p = pool.Get()
	eng.ScheduleArg(sim.Nanosecond, deliver, p)
}

// Good: the Put and the use are on mutually exclusive paths — the
// else branch never sees the released packet.
func branchIsolated(pool *packet.Pool, drop bool) uint64 {
	p := pool.Get()
	if drop {
		pool.Put(p)
		return 0
	}
	return p.Addr
}

// Bad: the branches rejoin, so the use after the if observes the
// released packet whenever drop was taken.
func putThenJoin(pool *packet.Pool, drop bool) uint64 {
	p := pool.Get()
	if drop {
		pool.Put(p)
	}
	return p.Addr // want `use of packet p after it was released to the pool`
}

// Bad: the Put at the bottom of the loop body reaches the read at the
// top of the next iteration across the back edge.
func loopCarried(pool *packet.Pool, n int) {
	p := pool.Get()
	for i := 0; i < n; i++ {
		p.Addr = uint64(i) // want `use of packet p after it was released to the pool`
		pool.Put(p)        // want `use of packet p after it was released to the pool`
	}
}

// Bad: the deferred Put runs at function exit, after the explicit Put
// already released the packet — a double free the defer hides.
func deferDoubleFree(pool *packet.Pool) {
	p := pool.Get()
	defer pool.Put(p) // want `use of packet p after it was released to the pool`
	pool.Put(p)
}
