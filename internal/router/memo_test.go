package router

import (
	"fmt"
	"strings"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// memoRouter is an n-port router whose input buffers are filled
// directly (no upstream link) and whose route function logs every call,
// so a test can drive single sweeps and read back exactly when route
// ran. dst maps a packet's Dst to its output port.
type memoRouter struct {
	eng  *sim.Engine
	r    *Router
	log  []string
	outs []*link.Direction
}

func newMemoRouter(t *testing.T, n int, queueDepth int, switchBps int64) *memoRouter {
	t.Helper()
	m := &memoRouter{eng: sim.NewEngine()}
	m.r = New(m.eng, 1, arb.New(arb.RoundRobin, arb.Config{}), switchBps)
	cfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: queueDepth, Credits: 8, CountHop: true}
	for i := 0; i < n; i++ {
		out := link.New(m.eng, cfg, nil)
		out.SetDeliver(func(p *packet.Packet) { out.ReturnCredit(packet.VCOf(p.Kind)) })
		m.r.AttachPort(link.NewBuffer(8, nil), out)
		m.outs = append(m.outs, out)
	}
	m.r.SetRoute(func(p *packet.Packet) int {
		m.log = append(m.log, fmt.Sprintf("route:%d", p.ID))
		return int(p.Dst)
	})
	m.r.SetObserver(grantObserver(func(p *packet.Packet, _ int, _ sim.Time) {
		m.log = append(m.log, fmt.Sprintf("fwd:%d", p.ID))
	}))
	return m
}

// grantObserver is a packet.Observer that hands every grant to the
// function; the other boundaries are not the router's.
type grantObserver func(p *packet.Packet, port int, wait sim.Time)

func (f grantObserver) Grant(p *packet.Packet, port int, wait sim.Time)           { f(p, port, wait) }
func (grantObserver) Inject(*packet.Packet, sim.Time)                             {}
func (grantObserver) Ship(*packet.Packet, sim.Time, sim.Time, sim.Time, sim.Time) {}
func (grantObserver) Land(*packet.Packet)                                         {}
func (grantObserver) Issue(*packet.Packet, sim.Time)                              {}

// push queues a packet with the given ID, bound for output port dst,
// at input port in.
func (m *memoRouter) push(in int, id uint64, kind packet.Kind, dst int) {
	m.r.InputBuffer(in).Push(&packet.Packet{ID: id, Kind: kind, Dst: packet.NodeID(dst)}, m.eng.Now())
}

// block leaves output o's VC of the given kind unable to accept: one
// filler takes the wire, the rest fill the queue behind it.
func (m *memoRouter) block(o int, kind packet.Kind) {
	for id := uint64(900); m.outs[o].CanAccept(packet.VCOf(kind)); id++ {
		m.outs[o].Send(&packet.Packet{ID: id, Kind: kind})
	}
}

func (m *memoRouter) sweep() string {
	m.log = m.log[:0]
	m.r.sweep()
	return strings.Join(m.log, " ")
}

// TestRouteMemoOncePerHead: within one sweep every head is routed
// exactly once, however many outputs scan for candidates; a popped
// input's next head is routed at the next scan.
func TestRouteMemoOncePerHead(t *testing.T) {
	m := newMemoRouter(t, 4, 4, 0)
	m.push(0, 1, packet.ReadReq, 3)
	m.push(0, 2, packet.ReadReq, 3)
	m.push(1, 3, packet.ReadReq, 2)
	m.push(2, 4, packet.ReadReq, 3)
	m.push(3, 5, packet.ReadResp, 1)
	// Responses first (5 at output 1), then requests: output 2 takes 3;
	// output 3 takes 1 and 4 by round-robin, then 2 once it is head.
	want := "route:5 fwd:5 route:1 route:3 route:4 fwd:3 fwd:1 route:2 fwd:4 fwd:2"
	if got := m.sweep(); got != want {
		t.Fatalf("sweep log\n got: %s\nwant: %s", got, want)
	}
}

// TestRouteMemoNoAcceptingOutput: no route call when no output of the
// VC can accept, while the other VC is still routed.
func TestRouteMemoNoAcceptingOutput(t *testing.T) {
	m := newMemoRouter(t, 3, 1, 0)
	for o := 0; o < 3; o++ {
		m.block(o, packet.ReadReq)
	}
	m.push(0, 1, packet.ReadReq, 1)
	m.push(1, 2, packet.ReadReq, 2)
	m.push(2, 3, packet.WriteAck, 0)
	if got, want := m.sweep(), "route:3 fwd:3"; got != want {
		t.Fatalf("sweep log %q, want %q", got, want)
	}
}

// TestRouteMemoCrossbarBusy: no route call when the crossbar is busy at
// the first accepting output; the sweep arms a retry instead.
func TestRouteMemoCrossbarBusy(t *testing.T) {
	m := newMemoRouter(t, 3, 4, 1e9)
	m.r.crossbar.Reserve(0, sim.Microsecond)
	m.push(0, 1, packet.ReadResp, 1)
	m.push(1, 2, packet.ReadReq, 2)
	if got := m.sweep(); got != "" {
		t.Fatalf("route ran under a busy crossbar: %s", got)
	}
	if !m.r.retryArmed {
		t.Fatal("busy crossbar did not arm a retry")
	}
}

// TestRouteMemoLazyAfterPop: the head behind a popped packet is routed
// at the next candidate scan, not at the pop — and not at all when no
// later output of the VC can accept.
func TestRouteMemoLazyAfterPop(t *testing.T) {
	// Output 1 accepts exactly one request (depth-1 queue behind a busy
	// wire); outputs 0 and 2 accept nothing, so nothing scans after the
	// pop and packet 2 is never routed.
	m := newMemoRouter(t, 3, 1, 0)
	m.block(0, packet.ReadReq)
	m.block(2, packet.ReadReq)
	m.outs[1].Send(&packet.Packet{ID: 900, Kind: packet.ReadReq})
	m.push(0, 1, packet.ReadReq, 1)
	m.push(0, 2, packet.ReadReq, 2)
	if got, want := m.sweep(), "route:1 fwd:1"; got != want {
		t.Fatalf("sweep log %q, want %q", got, want)
	}

	// Same, but output 2 accepts: its scan is the next one, and routes
	// packet 2 there.
	m = newMemoRouter(t, 3, 1, 0)
	m.block(0, packet.ReadReq)
	m.outs[1].Send(&packet.Packet{ID: 900, Kind: packet.ReadReq})
	m.push(0, 1, packet.ReadReq, 1)
	m.push(0, 2, packet.ReadReq, 2)
	if got, want := m.sweep(), "route:1 fwd:1 route:2 fwd:2"; got != want {
		t.Fatalf("sweep log %q, want %q", got, want)
	}
}
