package router

import (
	"fmt"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// sweepKinds are the three sweeps a router repeats most: one that finds
// every input empty, one that starts with the crossbar busy, and one
// that forwards a single packet.
var sweepKinds = []string{"empty", "busy", "forward"}

// sweepFixture builds a ports-port router and returns one operation of
// the given sweep kind, driving sweep directly:
//   - empty: no input holds a packet; the modelled crossbar is idle.
//   - busy: every input holds a request, but the crossbar is reserved
//     far ahead, so the sweep can only (re)arm its retry.
//   - forward: input 0 holds one request bound for output 1 under an
//     ideal switch. The sweep grants it; stepping the engine then
//     carries it over output 1's link and back into input 0.
func sweepFixture(ports int, kind string) func() {
	eng := sim.NewEngine()
	switchBps := int64(300e9)
	if kind == "forward" {
		switchBps = 0
	}
	r := New(eng, 1, arb.New(arb.RoundRobin, arb.Config{}), switchBps)
	cfg := link.Config{BandwidthBps: 240e9, SerDesLatency: 2 * sim.Nanosecond,
		QueueDepth: 8, Credits: 8, CountHop: true}
	for i := 0; i < ports; i++ {
		out := link.New(eng, cfg, nil)
		out.SetDeliver(func(p *packet.Packet) {
			out.ReturnCredit(packet.VCOf(p.Kind))
			r.in[0].Push(p, eng.Now())
		})
		r.AttachPort(link.NewBuffer(cfg.Credits, nil), out)
	}
	r.SetRoute(func(p *packet.Packet) int { return int(p.Dst) })
	switch kind {
	case "empty":
		return r.sweep
	case "busy":
		for i := 0; i < ports; i++ {
			r.in[i].Push(&packet.Packet{ID: uint64(i + 1), Kind: packet.ReadReq}, 0)
		}
		r.crossbar.Reserve(0, sim.Second)
		return r.sweep
	case "forward":
		r.in[0].Push(&packet.Packet{ID: 1, Kind: packet.ReadReq, Dst: 1}, 0)
		return func() {
			r.sweep()
			for eng.Step() {
			}
		}
	}
	panic("unknown sweep kind " + kind)
}

// BenchmarkSweep times one router sweep of each kind at 4, 8 and 16
// ports. The forward kind includes the output-link hop that returns
// its packet to the input.
func BenchmarkSweep(b *testing.B) {
	for _, kind := range sweepKinds {
		for _, ports := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("%s/p%d", kind, ports), func(b *testing.B) {
				op := sweepFixture(ports, kind)
				op() // warm-up: sizes the route memo and the link rings
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
	}
}
