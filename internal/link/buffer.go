package link

import (
	"fmt"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Buffer is the receiving-side input structure of a Direction: one FIFO
// per virtual channel whose depth matches the sender's credit allowance.
// Popping an entry returns a credit upstream.
type Buffer struct {
	fifo [packet.NumVCs]ring[arrival]
	// credit returns one slot to the upstream Direction.
	credit func(packet.VC)
	// waitTotal accumulates input-queuing time, the quantity the paper's
	// Section 3.2 analysis found "highly unbalanced" across ports.
	waitTotal sim.Time
	popped    uint64
}

type arrival struct {
	p  *packet.Packet
	at sim.Time
}

// NewBuffer returns a buffer of the given per-VC depth whose Pop returns
// credits through the supplied callback (typically dir.ReturnCredit).
func NewBuffer(depth int, credit func(packet.VC)) *Buffer {
	if depth <= 0 {
		panic("link: non-positive buffer depth")
	}
	b := &Buffer{credit: credit}
	for vc := range b.fifo {
		b.fifo[vc] = newRing[arrival](depth)
	}
	return b
}

// Push stores an arriving packet. Space is guaranteed by the sender's
// credit discipline; overflow indicates a protocol bug and panics.
func (b *Buffer) Push(p *packet.Packet, now sim.Time) {
	vc := packet.VCOf(p.Kind)
	if b.fifo[vc].full() {
		panic(fmt.Sprintf("link: input buffer overflow on %v for %v", vc, p))
	}
	b.fifo[vc].push(arrival{p: p, at: now})
}

// Head returns the oldest packet of vc without removing it, or nil.
func (b *Buffer) Head(vc packet.VC) *packet.Packet {
	if b.fifo[vc].len() == 0 {
		return nil
	}
	return b.fifo[vc].front().p
}

// Len reports the occupancy of the vc FIFO.
func (b *Buffer) Len(vc packet.VC) int { return b.fifo[vc].len() }

// HeadSince reports when the head packet of vc arrived. It lets an
// observer attribute per-packet arbitration wait before Pop folds the
// residency into the aggregate counters. Panics if the FIFO is empty.
func (b *Buffer) HeadSince(vc packet.VC) sim.Time {
	if b.fifo[vc].len() == 0 {
		panic("link: HeadSince on empty input buffer")
	}
	return b.fifo[vc].front().at
}

// Pop removes and returns the head of vc, returning one credit upstream.
// It panics if the FIFO is empty.
func (b *Buffer) Pop(vc packet.VC, now sim.Time) *packet.Packet {
	if b.fifo[vc].len() == 0 {
		panic("link: pop from empty input buffer")
	}
	a := b.fifo[vc].pop()
	b.waitTotal += now - a.at
	b.popped++
	if b.credit != nil {
		b.credit(vc)
	}
	return a.p
}

// MeanWait reports the average input-buffer residency observed so far.
func (b *Buffer) MeanWait() sim.Time {
	if b.popped == 0 {
		return 0
	}
	return b.waitTotal / sim.Time(b.popped)
}

// TotalWait reports accumulated input-buffer residency.
func (b *Buffer) TotalWait() sim.Time { return b.waitTotal }
