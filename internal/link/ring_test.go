package link

import (
	"fmt"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// TestRingWrapAround pushes and pops through a ring far more times than
// its depth, at every fill level, so the head and tail wrap repeatedly;
// order and occupancy must stay FIFO throughout.
func TestRingWrapAround(t *testing.T) {
	for _, depth := range []int{1, 3, 8} {
		r := newRing[int](depth)
		next, want := 0, 0
		for round := 0; round < 5*depth; round++ {
			fill := 1 + round%depth
			for r.len() < fill {
				r.push(next)
				next++
			}
			if !r.full() && fill == depth {
				t.Fatalf("depth %d: ring of %d entries not full", depth, r.len())
			}
			for k := 0; k < 1+round%fill; k++ {
				if got := *r.front(); got != want {
					t.Fatalf("depth %d round %d: front %d, want %d", depth, round, got, want)
				}
				if got := r.pop(); got != want {
					t.Fatalf("depth %d round %d: popped %d, want %d", depth, round, got, want)
				}
				want++
			}
		}
		if len(r.buf) != depth {
			t.Fatalf("depth %d: backing array %d entries, want exactly the depth", depth, len(r.buf))
		}
	}
}

// TestRingGrowsPastFirstChunk: a ring deeper than the first allocation
// grows by doubling with a wrapped tail and keeps FIFO order.
func TestRingGrowsPastFirstChunk(t *testing.T) {
	depth := 3*ringFirst + 5
	r := newRing[int](depth)
	for i := 0; i < 10; i++ {
		r.push(i)
	}
	for i := 0; i < 10; i++ {
		r.pop()
	}
	for i := 10; i < 10+depth; i++ {
		r.push(i)
	}
	if !r.full() || len(r.buf) != depth {
		t.Fatalf("len %d, backing %d, want %d full", r.len(), len(r.buf), depth)
	}
	for i := 10; i < 10+depth; i++ {
		if got := r.pop(); got != i {
			t.Fatalf("popped %d, want %d", got, i)
		}
	}
}

// TestRingPopZeroesSlot: a popped slot no longer references its packet.
func TestRingPopZeroesSlot(t *testing.T) {
	r := newRing[*packet.Packet](2)
	r.push(mkPacket(1, packet.ReadReq))
	r.pop()
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds packet %d after pop", i, p.ID)
		}
	}
}

// TestBufferAfterWrap: HeadSince, Head and Len track the wrapped FIFO.
func TestBufferAfterWrap(t *testing.T) {
	b := NewBuffer(3, nil)
	vc := packet.VCRequest
	for i := 1; i <= 3; i++ {
		b.Push(mkPacket(uint64(i), packet.ReadReq), sim.Time(i))
	}
	b.Pop(vc, 10)
	b.Pop(vc, 10)
	b.Push(mkPacket(4, packet.ReadReq), 4)
	b.Push(mkPacket(5, packet.ReadReq), 5)
	if got := b.Len(vc); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for id := uint64(3); id <= 5; id++ {
		if got := b.HeadSince(vc); got != sim.Time(id) {
			t.Fatalf("HeadSince = %v, want %v", got, sim.Time(id))
		}
		if got := b.Head(vc).ID; got != id {
			t.Fatalf("Head = %d, want %d", got, id)
		}
		b.Pop(vc, 10)
	}
	if b.Len(vc) != 0 || b.Head(vc) != nil {
		t.Fatal("drained buffer not empty")
	}
}

// mustPanicWith runs fn and requires it to panic with exactly msg.
func mustPanicWith(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != msg {
			t.Fatalf("panic %v, want %q", got, msg)
		}
	}()
	fn()
}

// TestOverflowMessages: overflow of a wrapped input buffer and output
// queue still panics with the flow-control diagnostics.
func TestOverflowMessages(t *testing.T) {
	b := NewBuffer(2, nil)
	b.Push(mkPacket(1, packet.ReadReq), 0)
	b.Pop(packet.VCRequest, 0)
	b.Push(mkPacket(2, packet.ReadReq), 0)
	b.Push(mkPacket(3, packet.ReadReq), 0)
	over := mkPacket(4, packet.ReadReq)
	mustPanicWith(t, fmt.Sprintf("link: input buffer overflow on %v for %v", packet.VCRequest, over),
		func() { b.Push(over, 0) })

	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.QueueDepth = 2
	d := New(eng, cfg, nil)
	d.SetDeliver(func(*packet.Packet) {})
	for i := uint64(1); i <= 3; i++ { // the first takes the wire
		d.Send(mkPacket(i, packet.ReadReq))
	}
	over = mkPacket(9, packet.ReadReq)
	mustPanicWith(t, fmt.Sprintf("link: output queue overflow on %v for %v", packet.VCRequest, over),
		func() { d.Send(over) })
}

// TestFailDrainsWrappedQueue: Fail hands a wrapped output queue to the
// drain callback in FIFO order, then the direction accepts nothing.
func TestFailDrainsWrappedQueue(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.QueueDepth, cfg.Credits = 3, 2
	d := New(eng, cfg, nil)
	d.SetDeliver(func(*packet.Packet) {}) // credits never return
	d.Send(mkPacket(1, packet.ReadReq))   // takes the wire and a credit
	d.Send(mkPacket(2, packet.ReadReq))
	d.Send(mkPacket(3, packet.ReadReq))
	eng.Run() // 2 takes the last credit; 3 stalls at the head
	d.Send(mkPacket(4, packet.ReadReq))
	d.Send(mkPacket(5, packet.ReadReq)) // wraps past the array end
	if d.QueueLen(packet.VCRequest) != 3 {
		t.Fatalf("queue len %d, want 3", d.QueueLen(packet.VCRequest))
	}
	var ids []uint64
	d.Fail(func(p *packet.Packet) { ids = append(ids, p.ID) })
	if fmt.Sprint(ids) != "[3 4 5]" {
		t.Fatalf("drained %v, want [3 4 5]", ids)
	}
	if d.QueueLen(packet.VCRequest) != 0 || d.CanAccept(packet.VCRequest) || d.CanAccept(packet.VCResponse) {
		t.Fatal("failed direction still holds or accepts traffic")
	}
	mustPanic(t, "Send after Fail", func() { d.Send(mkPacket(6, packet.ReadReq)) })
}
