package link

import (
	"testing"

	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// TestRetryDeliversThroughErrors: with an attached fault model and
// unbounded retries, every packet eventually lands despite a brutal
// error rate (BER 1e-3 corrupts ~12% of 128-bit requests), and each
// error accounts for exactly one retransmission.
func TestRetryDeliversThroughErrors(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.QueueDepth = 64
	cfg.Credits = 64
	d := New(eng, cfg, nil)
	d.AttachFault(fault.NewLinkFault(42, 1e-3, 0, 8*sim.Nanosecond))
	delivered := 0
	d.SetDeliver(func(p *packet.Packet) {
		delivered++
		d.ReturnCredit(packet.VCOf(p.Kind))
	})
	const n = 64
	for i := 0; i < n; i++ {
		d.Send(mkPacket(uint64(i), packet.ReadReq))
	}
	eng.Run()
	s := d.Stats()
	if delivered != n {
		t.Fatalf("delivered %d/%d through errors", delivered, n)
	}
	if s.CRCErrors == 0 {
		t.Fatal("BER=0.5 over 64+ transmissions produced no CRC error")
	}
	if s.Retries != s.CRCErrors {
		t.Fatalf("Retries %d != CRCErrors %d with unbounded retries", s.Retries, s.CRCErrors)
	}
	if s.Dropped != 0 {
		t.Fatalf("dropped %d with unbounded retries", s.Dropped)
	}
	if d.RetryLen() != 0 {
		t.Fatalf("retry buffer left %d entries", d.RetryLen())
	}
}

// TestRetryExhaustionDrops: BER=1 with bounded retries drops the packet
// after the original transmission plus MaxRetries retransmissions, and
// restores the credit its first transmission consumed.
func TestRetryExhaustionDrops(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	d := New(eng, cfg, nil)
	d.AttachFault(fault.NewLinkFault(1, 1.0, 2, 8*sim.Nanosecond))
	d.SetDeliver(func(*packet.Packet) { t.Fatal("corrupted packet delivered") })
	d.Send(mkPacket(1, packet.ReadReq))
	eng.Run()
	s := d.Stats()
	if s.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped)
	}
	if s.CRCErrors != 3 || s.Retries != 2 {
		t.Fatalf("CRCErrors = %d, Retries = %d; want 3 errors over 2 retries", s.CRCErrors, s.Retries)
	}
	if got := d.Credits(packet.VCRequest); got != cfg.Credits {
		t.Fatalf("credit not restored on drop: %d/%d", got, cfg.Credits)
	}
	if d.RetryLen() != 0 {
		t.Fatal("dropped packet left in retry buffer")
	}
}

// runTo runs eng until a marker event scheduled now for time t fires:
// every event before t, and those at t scheduled before the marker.
func runTo(eng *sim.Engine, t sim.Time) {
	reached := false
	eng.At(t, func() { reached = true })
	eng.RunWhile(func() bool { return !reached })
}

// TestRetryHoldsCredit: a packet parked in the retry buffer keeps its
// receiver credit reserved until it finally lands.
func TestRetryHoldsCredit(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.Credits = 1
	d := New(eng, cfg, nil)
	d.AttachFault(fault.NewLinkFault(1, 1.0, 0, 8*sim.Nanosecond))
	d.SetDeliver(func(*packet.Packet) {})
	d.Send(mkPacket(1, packet.ReadReq))
	// Let a few retry rounds elapse; the single credit must stay consumed
	// the whole time the packet shuttles through the retry buffer.
	runTo(eng, 200*sim.Nanosecond)
	if got := d.Credits(packet.VCRequest); got != 0 {
		t.Fatalf("retrying packet released its credit: %d available", got)
	}
	if d.RetryLen() != 1 && !d.wire.Idle(eng.Now()) {
		t.Fatal("packet neither in retry buffer nor on the wire")
	}
}

func TestDownbindHalvesBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	var arrivals []sim.Time
	d.SetDeliver(func(*packet.Packet) { arrivals = append(arrivals, eng.Now()) })
	d.Downbind()
	if got := d.Bandwidth(); got != 120e9 {
		t.Fatalf("bandwidth after downbind = %d, want 120e9", got)
	}
	d.Send(mkPacket(1, packet.ReadResp))
	d.Send(mkPacket(2, packet.ReadResp))
	eng.Run()
	ser := sim.BitTime(640, 120e9)
	if len(arrivals) != 2 || arrivals[1]-arrivals[0] != ser {
		t.Fatalf("half-width spacing %v, want %v", arrivals[1]-arrivals[0], ser)
	}
	// A second failure quarters the original width.
	d.Downbind()
	if got := d.Bandwidth(); got != 60e9 {
		t.Fatalf("bandwidth after two downbinds = %d, want 60e9", got)
	}
}

// TestFailDrainsQueues: killing a direction hands every queued packet to
// the drain callback, stops accepting traffic, and still lands the
// packet that was already serialized onto the wire.
func TestFailDrainsQueues(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	delivered := 0
	d.SetDeliver(func(*packet.Packet) { delivered++ })
	d.Send(mkPacket(1, packet.ReadReq)) // takes the wire immediately
	d.Send(mkPacket(2, packet.ReadReq)) // queued
	d.Send(mkPacket(3, packet.ReadResp))
	var drained []*packet.Packet
	d.Fail(func(p *packet.Packet) { drained = append(drained, p) })
	if !d.Dead() {
		t.Fatal("Dead() false after Fail")
	}
	if len(drained) != 2 {
		t.Fatalf("drained %d queued packets, want 2", len(drained))
	}
	if d.CanAccept(packet.VCRequest) || d.CanAccept(packet.VCResponse) {
		t.Fatal("failed direction still accepts")
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("in-flight packet: delivered %d, want 1", delivered)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Send on failed link must panic")
		}
	}()
	d.Send(mkPacket(4, packet.ReadReq))
}

// TestFailDrainsRetryBuffer: packets parked for retransmission are also
// returned to the router when the link dies.
func TestFailDrainsRetryBuffer(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	d.AttachFault(fault.NewLinkFault(1, 1.0, 0, 8*sim.Nanosecond))
	d.SetDeliver(func(*packet.Packet) { t.Fatal("corrupted packet delivered") })
	p := mkPacket(1, packet.ReadReq)
	d.Send(p)
	// Run past the first corruption so the packet is in the retry buffer.
	runTo(eng, 5*sim.Nanosecond)
	if d.RetryLen() != 1 {
		t.Fatalf("retry buffer len %d, want 1", d.RetryLen())
	}
	var drained []*packet.Packet
	d.Fail(func(q *packet.Packet) { drained = append(drained, q) })
	if len(drained) != 1 || drained[0] != p {
		t.Fatalf("retry buffer not drained: %v", drained)
	}
	eng.Run() // pending retry pump events must be inert on a dead link
}
