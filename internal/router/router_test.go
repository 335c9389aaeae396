package router

import (
	"testing"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// twoPortRouter builds a router with two synthetic neighbors. Feed
// functions inject packets as if arriving from a neighbor; sinks record
// what leaves toward each neighbor.
type twoPortRouter struct {
	eng   *sim.Engine
	r     *Router
	feed  [2]*link.Direction // neighbor -> router
	sunk  [2][]*packet.Packet
	toNbr [2]*link.Direction // router -> neighbor
}

func newTwoPort(t *testing.T, policy arb.Policy, switchBps int64) *twoPortRouter {
	t.Helper()
	eng := sim.NewEngine()
	h := &twoPortRouter{eng: eng}
	h.r = New(eng, 1, policy, switchBps)
	cfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 4, Credits: 4, CountHop: true}
	for i := 0; i < 2; i++ {
		i := i
		h.feed[i] = link.New(eng, cfg, nil)
		h.toNbr[i] = link.New(eng, cfg, nil)
		buf := link.NewBuffer(4, h.feed[i].ReturnCredit)
		idx := h.r.AttachPort(buf, h.toNbr[i])
		h.feed[i].SetDeliver(h.r.Deliver(idx))
		h.toNbr[i].SetDeliver(func(p *packet.Packet) {
			h.sunk[i] = append(h.sunk[i], p)
			h.toNbr[i].ReturnCredit(packet.VCOf(p.Kind))
		})
	}
	return h
}

func TestForwarding(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	// Route everything out port 1.
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	p := &packet.Packet{ID: 1, Kind: packet.ReadReq, Dst: 9}
	h.feed[0].Send(p)
	h.eng.Run()
	if len(h.sunk[1]) != 1 || h.sunk[1][0] != p {
		t.Fatal("packet not forwarded to port 1")
	}
	if len(h.sunk[0]) != 0 {
		t.Fatal("packet leaked to port 0")
	}
	if h.r.Forwarded[packet.VCRequest] != 1 {
		t.Fatal("forward not counted")
	}
	if p.EnterPort != 0 {
		t.Fatalf("EnterPort = %d", p.EnterPort)
	}
	if p.Hops != 2 { // feed hop + outbound hop
		t.Fatalf("hops = %d", p.Hops)
	}
}

func TestResponsesBeforeRequests(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	// Two requests and a response arrive back-to-back from port 0; the
	// response must be forwarded first even though it arrived last
	// (they accumulate while the first request serializes outbound).
	h.feed[0].Send(&packet.Packet{ID: 1, Kind: packet.WriteReq})
	h.feed[0].Send(&packet.Packet{ID: 2, Kind: packet.WriteReq})
	h.feed[0].Send(&packet.Packet{ID: 3, Kind: packet.ReadResp})
	h.eng.Run()
	if len(h.sunk[1]) != 3 {
		t.Fatalf("sunk %d", len(h.sunk[1]))
	}
	// The response (ID 3) should not be last.
	if h.sunk[1][2].ID == 3 {
		t.Fatalf("response forwarded last: %v", h.sunk[1])
	}
}

func TestCrossbarOccupancy(t *testing.T) {
	// A very slow crossbar (1 Gbps) makes switch traversal dominate:
	// two 128-bit packets need 128ns each of crossbar time.
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 1e9)
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	h.feed[0].Send(&packet.Packet{ID: 1, Kind: packet.ReadReq})
	h.feed[0].Send(&packet.Packet{ID: 2, Kind: packet.ReadReq})
	h.eng.Run()
	if len(h.sunk[1]) != 2 {
		t.Fatalf("sunk %d", len(h.sunk[1]))
	}
	// With the crossbar serializing at 128ns per packet, the two
	// deliveries must be at least that far apart (link serialization at
	// 240Gbps is negligible by comparison).
	// Find arrival times via the engine clock history: compare via a
	// separate run is overkill — assert total runtime instead.
	if h.eng.Now() < 256*sim.Nanosecond {
		t.Fatalf("finished at %v; crossbar not modeled", h.eng.Now())
	}
}

func TestIdealSwitchWhenZero(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	for i := 0; i < 4; i++ {
		h.feed[0].Send(&packet.Packet{ID: uint64(i), Kind: packet.ReadReq})
	}
	h.eng.Run()
	// 4 control packets: bounded by link serialization only (~0.54ns
	// each) plus serdes; far under 10ns.
	if h.eng.Now() > 10*sim.Nanosecond {
		t.Fatalf("ideal switch too slow: %v", h.eng.Now())
	}
}

func TestContentionCounting(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	// Both inputs feed port... we need a third port to contend into.
	// Reuse the two-port harness: traffic from both ports routed to the
	// OTHER port would not contend. Instead route everything from both
	// ports out port 1: port 1's own feed is skipped (i == o), so only
	// port 0 candidates exist -> no contention. Use a 3-port router.
	eng := sim.NewEngine()
	r := New(eng, 1, arb.New(arb.RoundRobin, arb.Config{}), 0)
	feedCfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 16, Credits: 4, CountHop: true}
	outCfg := link.Config{BandwidthBps: 24e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 1, Credits: 4, CountHop: true}
	var feeds [3]*link.Direction
	var outs [3]*link.Direction
	for i := 0; i < 3; i++ {
		i := i
		feeds[i] = link.New(eng, feedCfg, nil)
		outs[i] = link.New(eng, outCfg, nil)
		buf := link.NewBuffer(4, feeds[i].ReturnCredit)
		idx := r.AttachPort(buf, outs[i])
		feeds[i].SetDeliver(r.Deliver(idx))
		outs[i].SetDeliver(func(p *packet.Packet) {
			outs[i].ReturnCredit(packet.VCOf(p.Kind))
		})
	}
	r.SetRoute(func(p *packet.Packet) int { return 2 })
	// Saturate from ports 0 and 1 toward port 2 (slow 24Gbps link, depth-1
	// queue) so heads coexist.
	for i := 0; i < 8; i++ {
		feeds[0].Send(&packet.Packet{ID: uint64(i), Kind: packet.ReadResp})
		feeds[1].Send(&packet.Packet{ID: uint64(100 + i), Kind: packet.ReadResp})
	}
	eng.Run()
	if r.Contended == 0 {
		t.Fatal("no contention observed")
	}
	if r.TotalInputWait() <= 0 {
		t.Fatal("input wait should accumulate under contention")
	}
	_ = h
}

func TestMissingRoutePanics(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("sweep without route must panic")
		}
	}()
	h.feed[0].Send(&packet.Packet{ID: 1, Kind: packet.ReadReq})
	h.eng.Run()
}

// TestReinjectReroutes: a packet salvaged off a dead link leaves through
// whatever port the route table picks, counted in Rerouted.
func TestReinjectReroutes(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	h.r.SetRoute(func(p *packet.Packet) int { return 1 })
	p := &packet.Packet{ID: 1, Kind: packet.ReadReq, Src: 0, Dst: 2}
	h.r.Reinject(p)
	if h.r.RerouteBacklog() != 1 {
		t.Fatalf("backlog %d before sweep, want 1", h.r.RerouteBacklog())
	}
	h.eng.Run()
	if len(h.sunk[1]) != 1 || h.sunk[1][0] != p {
		t.Fatalf("reinjected packet not rerouted out port 1: %v", h.sunk)
	}
	if h.r.Rerouted != 1 || h.r.RerouteBacklog() != 0 {
		t.Fatalf("Rerouted=%d backlog=%d, want 1/0", h.r.Rerouted, h.r.RerouteBacklog())
	}
}

// TestReinjectWaitsForSpace: with the chosen output failed, the salvaged
// packet waits in the side queue instead of being dropped or panicking.
func TestReinjectWaitsForSpace(t *testing.T) {
	h := newTwoPort(t, arb.New(arb.RoundRobin, arb.Config{}), 0)
	routeTo := 1
	h.r.SetRoute(func(p *packet.Packet) int { return routeTo })
	h.toNbr[1].Fail(func(*packet.Packet) {})
	p := &packet.Packet{ID: 1, Kind: packet.ReadReq, Src: 0, Dst: 2}
	h.r.Reinject(p)
	h.eng.Run()
	if h.r.RerouteBacklog() != 1 || h.r.Rerouted != 0 {
		t.Fatalf("packet should wait: backlog=%d rerouted=%d", h.r.RerouteBacklog(), h.r.Rerouted)
	}
	// Route table swap (as core does after a kill) frees it via port 0.
	routeTo = 0
	h.r.Kick()
	h.eng.Run()
	if len(h.sunk[0]) != 1 || h.r.Rerouted != 1 {
		t.Fatalf("packet not released after table swap: %v", h.sunk)
	}
}

// TestAttachPortLimit: a router takes packet.MaxPorts ports, whose
// indices fit packet.EnterPort, and panics on the next one rather than
// let Deliver wrap the int8.
func TestAttachPortLimit(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, 1, arb.New(arb.RoundRobin, arb.Config{}), 0)
	cfg := link.Config{BandwidthBps: 240e9, QueueDepth: 1, Credits: 1}
	attach := func() int {
		return r.AttachPort(link.NewBuffer(1, func(packet.VC) {}), link.New(eng, cfg, nil))
	}
	for i := 0; i < packet.MaxPorts; i++ {
		if idx := attach(); idx != i {
			t.Fatalf("port %d attached at index %d", i, idx)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("port %d attached past the %d-port limit", packet.MaxPorts, packet.MaxPorts)
		}
	}()
	attach()
}
