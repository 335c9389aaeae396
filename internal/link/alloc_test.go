package link

import (
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Allocation gate: the steady-state link paths allocate nothing. Each
// measurement is one call of many operations, so a single allocation
// anywhere in them fails the test.

func TestAllocFreeBuffer(t *testing.T) {
	credits := 0
	b := NewBuffer(4, func(packet.VC) { credits++ })
	p := mkPacket(1, packet.ReadReq)
	q := mkPacket(2, packet.ReadResp)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			b.Push(p, sim.Time(i))
			b.Push(q, sim.Time(i))
			b.Push(p, sim.Time(i))
			b.Pop(packet.VCRequest, sim.Time(i+1))
			b.Pop(packet.VCResponse, sim.Time(i+1))
			b.Pop(packet.VCRequest, sim.Time(i+1))
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in 3000 Buffer push/pop pairs, want 0", allocs)
	}
}

func TestAllocFreeDirectionHop(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	d := New(eng, cfg, nil)
	hops := 0
	d.SetDeliver(func(p *packet.Packet) {
		hops++
		d.ReturnCredit(packet.VCOf(p.Kind))
		d.Send(p)
	})
	for k := 0; k < cfg.QueueDepth; k++ {
		kind := packet.ReadReq
		if k%2 == 1 {
			kind = packet.ReadResp
		}
		d.Send(mkPacket(uint64(k), kind))
	}
	allocs := testing.AllocsPerRun(1, func() {
		for target := hops + 2000; hops < target && eng.Step(); {
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in 2000 Send->deliver->ReturnCredit hops, want 0", allocs)
	}
}
