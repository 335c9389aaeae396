package router

import (
	"fmt"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// contendedRouter builds a ports-port router whose inputs all hold
// request packets bound for output 0, so every grant has every input
// contending. A packet leaving output 0 re-enters the input it came
// from, keeping the contention steady forever.
func contendedRouter(ports int, policy arb.Policy) (*sim.Engine, *Router) {
	eng := sim.NewEngine()
	r := New(eng, 1, policy, 0)
	cfg := link.Config{BandwidthBps: 240e9, SerDesLatency: 2 * sim.Nanosecond,
		QueueDepth: 8, Credits: 8, CountHop: true}
	feeds := make([]*link.Direction, ports)
	for i := 0; i < ports; i++ {
		feed := link.New(eng, cfg, nil)
		out := link.New(eng, cfg, nil)
		idx := r.AttachPort(link.NewBuffer(cfg.Credits, feed.ReturnCredit), out)
		feed.SetDeliver(r.Deliver(idx))
		feeds[i] = feed
		out.SetDeliver(func(p *packet.Packet) {
			out.ReturnCredit(packet.VCOf(p.Kind))
			feeds[p.EnterPort].Send(p)
		})
	}
	r.SetRoute(func(*packet.Packet) int { return 0 })
	id := uint64(0)
	for i := 0; i < ports; i++ {
		for k := 0; k < cfg.QueueDepth; k++ {
			id++
			kind := packet.ReadReq
			if k%3 == 2 {
				kind = packet.WriteReq
			}
			feeds[i].Send(&packet.Packet{ID: id, Kind: kind, Src: packet.NodeID(i),
				Dst: 1, Distance: i % 5})
		}
	}
	return eng, r
}

// grants steps the engine until n more packets have been forwarded.
func grants(eng *sim.Engine, r *Router, n uint64) {
	target := r.Forwarded[packet.VCRequest] + n
	for r.Forwarded[packet.VCRequest] < target && eng.Step() {
	}
}

// TestAllocFreeGrant is the router's allocation gate: after warm-up, a
// contended grant allocates nothing, at every port count and under both
// the baseline and the augmented distance policy.
func TestAllocFreeGrant(t *testing.T) {
	policies := []arb.Kind{arb.RoundRobin, arb.DistanceAugmented}
	cfg := arb.Config{WriteDemotion: 2, Bias: func(n packet.NodeID) int64 { return int64(n % 3) }}
	for _, ports := range []int{4, 8, 16} {
		for _, kind := range policies {
			t.Run(fmt.Sprintf("%v/p%d", kind, ports), func(t *testing.T) {
				eng, r := contendedRouter(ports, arb.New(kind, cfg))
				grants(eng, r, 2000) // warm-up
				const n = 5000
				before := r.Contended
				allocs := testing.AllocsPerRun(1, func() { grants(eng, r, n) })
				if allocs != 0 {
					t.Fatalf("%v allocations in %d grants, want 0", allocs, n)
				}
				if r.Contended == before {
					t.Fatal("no contended grants measured")
				}
			})
		}
	}
}

// TestAllocFreeSweep extends the gate to the sweeps that forward
// nothing: after warm-up, a sweep that finds every input empty and one
// that starts with the crossbar busy allocate nothing.
func TestAllocFreeSweep(t *testing.T) {
	for _, kind := range []string{"empty", "busy"} {
		for _, ports := range []int{4, 8, 16} {
			t.Run(fmt.Sprintf("%s/p%d", kind, ports), func(t *testing.T) {
				op := sweepFixture(ports, kind)
				op()
				if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
					t.Fatalf("%v allocations per %s sweep, want 0", allocs, kind)
				}
			})
		}
	}
}
