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

// The oracle below is the router sweep as it was before the empty-VC
// skip: every sweep walks both VCs across every output through drain.
// TestSweepMatchesOracle drives it and the production sweep from
// identical random router states and requires identical observable
// effects, sweep for sweep.

func (r *Router) oracleSweep() {
	if r.route == nil {
		panic(fmt.Sprintf("router %d: no route function", r.node))
	}
	r.drainReroutes()
	n := len(r.out)
	if len(r.heads) != n {
		r.words = (n + 63) / 64
		r.heads = make([]*packet.Packet, n)
		r.bucket = make([]uint64, n*r.words)
		r.cands = make([]int, 0, n)
	}
	for _, vc := range [...]packet.VC{packet.VCResponse, packet.VCRequest} {
		r.scanned = false
		for k := 0; k < n; k++ {
			if !r.drain((r.sweepStart+k)%n, vc) {
				return
			}
		}
	}
	r.sweepStart++
}

// logPolicy records every arbitration call — the output, the VC, the
// candidates and every head the arbiter can see — before delegating.
type logPolicy struct {
	arb.Policy
	rig *sweepRig
}

func (l logPolicy) Pick(out int, vc packet.VC, cands []int, heads []*packet.Packet) int {
	var b strings.Builder
	fmt.Fprintf(&b, "pick o%d v%d c%v h[", out, vc, cands)
	for i, h := range heads {
		if h != nil {
			fmt.Fprintf(&b, "%d:%d ", i, h.ID)
		}
	}
	pick := l.Policy.Pick(out, vc, cands, heads)
	fmt.Fprintf(&b, "] -> %d", pick)
	l.rig.note(b.String())
	return pick
}

// sweepRig is a router of random shape and state whose every
// observable effect is logged: route calls (which may rewrite the
// packet's route, as re-homing does), arbitration calls, grants,
// credits returned upstream, deliveries, and per sweep the rotation,
// the contention count, the armed retry and the engine's pending
// events. Two rigs built from one seed take the same random actions;
// one sweeps with the oracle, the other with the production code.
type sweepRig struct {
	eng    *sim.Engine
	r      *Router
	rng    *sim.Rand
	oracle bool
	n      int
	depth  []int
	outs   []*link.Direction
	owed   [][packet.NumVCs]int // credits withheld by each output's sink
	resp   int                  // percentage of new packets that are responses
	log    []string
	id     uint64
	grants []uint64 // grants per input, counted by the rig's observer

	sweeps, busyStarts, emptyStarts, forwarding, armed int
}

func newSweepRig(seed uint64, oracle bool) *sweepRig {
	rng := sim.NewRand(seed)
	n := 2 + rng.Intn(19)
	switch rng.Intn(10) {
	case 0, 1, 2, 3, 4:
		n = 2 + rng.Intn(3) // few ports: every output blocked at once is common
	case 5:
		n = 60 + rng.Intn(69) // bitsets of more than one word, up to packet.MaxPorts
	}
	g := &sweepRig{eng: sim.NewEngine(), rng: rng, oracle: oracle, n: n,
		resp: [...]int{10, 50, 90}[rng.Intn(3)]}
	switchBps := [...]int64{0, 1e9, 300e9}[rng.Intn(3)]
	policy := arb.New(arb.Kind(rng.Intn(3)), arb.Config{WriteDemotion: 2,
		Bias: func(n packet.NodeID) int64 { return int64(n % 3) }})
	g.r = New(g.eng, 1, logPolicy{policy, g}, switchBps)
	g.owed = make([][packet.NumVCs]int, g.n)
	for i := 0; i < g.n; i++ {
		i := i
		cfg := link.Config{BandwidthBps: 240e9, SerDesLatency: sim.Nanosecond,
			QueueDepth: 1 + rng.Intn(3), Credits: 1 + rng.Intn(3), CountHop: true}
		out := link.New(g.eng, cfg, nil)
		out.SetDeliver(func(p *packet.Packet) {
			g.note(fmt.Sprintf("deliver o%d %d", i, p.ID))
			g.owed[i][packet.VCOf(p.Kind)]++
		})
		depth := 1 + rng.Intn(4)
		credit := func(vc packet.VC) { g.note(fmt.Sprintf("credit i%d v%d", i, vc)) }
		g.r.AttachPort(link.NewBuffer(depth, credit), out)
		g.outs = append(g.outs, out)
		g.depth = append(g.depth, depth)
	}
	g.r.SetRoute(func(p *packet.Packet) int {
		g.note(fmt.Sprintf("route %d", p.ID))
		if g.rng.Intn(8) == 0 {
			p.Addr = g.target()
		}
		return int(p.Addr) - 1
	})
	g.grants = make([]uint64, g.n)
	g.r.SetObserver(grantObserver(func(p *packet.Packet, port int, wait sim.Time) {
		g.grants[port]++
		g.note(fmt.Sprintf("fwd %d from %d wait %d", p.ID, port, wait))
	}))
	g.r.sweepFn = func() {
		g.r.sweepPending = false
		g.sweep()
	}
	g.r.retryFn = func() {
		g.r.retryArmed = false
		g.sweep()
	}
	return g
}

func (g *sweepRig) note(s string) { g.log = append(g.log, s) }

// target draws a packet's route, stored as Addr = output+1: mostly a
// real output, now and then -1 (no output matches).
func (g *sweepRig) target() uint64 {
	if g.rng.Intn(16) == 0 {
		return 0
	}
	return uint64(1 + g.rng.Intn(g.n))
}

func (g *sweepRig) packet() *packet.Packet {
	g.id++
	kinds := [...]packet.Kind{packet.ReadReq, packet.WriteReq, packet.ReadResp, packet.WriteAck}
	k := g.rng.Intn(2)
	if g.rng.Intn(100) < g.resp {
		k += 2
	}
	return &packet.Packet{ID: g.id, Kind: kinds[k],
		Src: packet.NodeID(g.rng.Intn(8)), Distance: g.rng.Intn(5), Addr: g.target()}
}

// sweep runs one sweep under the rig's implementation, bracketed by
// the state it starts from and the state it leaves.
func (g *sweepRig) sweep() {
	r := g.r
	now := g.eng.Now()
	busy := r.switchBps > 0 && !r.crossbar.Idle(now)
	empty := true
	for i := range r.in {
		if r.in[i].Len(packet.VCResponse)+r.in[i].Len(packet.VCRequest) > 0 {
			empty = false
		}
	}
	g.sweeps++
	if busy {
		g.busyStarts++
	}
	if empty {
		g.emptyStarts++
	}
	fwd, wasArmed := r.Forwarded, r.retryArmed
	g.note(fmt.Sprintf("sweep @%d start %d reroutes %d busy %v", now, r.sweepStart, len(r.reroutes), busy))
	if g.oracle {
		r.oracleSweep()
	} else {
		r.sweep()
	}
	if r.Forwarded != fwd {
		g.forwarding++
	}
	if r.retryArmed && !wasArmed {
		g.armed++
	}
	g.note(fmt.Sprintf("end start %d contended %d fwd %v grants %v rerouted %d armed %v free %d pending %d",
		r.sweepStart, r.Contended, r.Forwarded, g.grants, r.Rerouted, r.retryArmed,
		r.crossbar.FreeAt(), g.eng.Pending()))
}

// act takes one random action: fill an input, fill or unblock an
// output, occupy the crossbar, salvage a packet into the reroute
// queue, fail or restore an output, sweep, or run a few events.
func (g *sweepRig) act() {
	r := g.r
	switch a := g.rng.Intn(20); {
	case a < 6:
		i, p := g.rng.Intn(g.n), g.packet()
		if r.in[i].Len(packet.VCOf(p.Kind)) < g.depth[i] {
			g.note(fmt.Sprintf("push i%d %d", i, p.ID))
			r.in[i].Push(p, g.eng.Now())
		}
	case a < 8:
		// Fill one VC of an output until it accepts no more.
		o, p := g.rng.Intn(g.n), g.packet()
		for g.outs[o].CanAccept(packet.VCOf(p.Kind)) {
			g.note(fmt.Sprintf("fill o%d %d", o, p.ID))
			g.outs[o].Send(p)
			g.id++
			p = &packet.Packet{ID: g.id, Kind: p.Kind}
		}
	case a < 9:
		o := g.rng.Intn(g.n)
		for vc := range g.owed[o] {
			for ; g.owed[o][vc] > 0; g.owed[o][vc]-- {
				g.outs[o].ReturnCredit(packet.VC(vc))
			}
		}
	case a < 10:
		if r.switchBps > 0 {
			r.crossbar.Reserve(g.eng.Now(), sim.Time(1+g.rng.Intn(4000)))
		}
	case a < 11:
		if g.rng.Intn(3) == 0 {
			p := g.packet()
			g.note(fmt.Sprintf("reinject %d", p.ID))
			r.Reinject(p)
		}
	case a < 12:
		o := g.rng.Intn(g.n)
		switch g.outs[o].State() {
		case link.Up:
			if g.rng.Intn(4) == 0 {
				g.note(fmt.Sprintf("fail o%d", o))
				g.outs[o].Fail(r.Reinject)
			}
		case link.Down:
			g.outs[o].BeginRetrain()
		case link.Retraining:
			g.note(fmt.Sprintf("restore o%d", o))
			g.outs[o].CompleteRetrain()
		}
	case a < 17:
		g.sweep()
	default:
		for k := g.rng.Intn(6); k >= 0 && g.eng.Step(); k-- {
		}
	}
}

// TestSweepMatchesOracle runs oracle and production sweeps side by
// side over hundreds of random routers (2–20 ports and a few past 64,
// both VCs, full outputs, withheld credits, busy/idle/unmodelled
// crossbars, pending reroutes, failed outputs) and requires the same
// log, entry for entry, over at least 10,000 sweeps.
func TestSweepMatchesOracle(t *testing.T) {
	const trials, actions = 400, 120
	var sweeps, busy, empty, forwarding, armed int
	for seed := uint64(1); seed <= trials; seed++ {
		want, got := newSweepRig(seed, true), newSweepRig(seed, false)
		for step := 0; step < actions; step++ {
			want.act()
			got.act()
			if len(want.log) != len(got.log) || strings.Join(want.log, "\n") != strings.Join(got.log, "\n") {
				t.Fatalf("seed %d, %d ports, switch %d bps, action %d: logs differ\n%s",
					seed, want.n, want.r.switchBps, step, firstDiff(want.log, got.log))
			}
			want.log, got.log = want.log[:0], got.log[:0]
		}
		sweeps += got.sweeps
		busy += got.busyStarts
		empty += got.emptyStarts
		forwarding += got.forwarding
		armed += got.armed
	}
	t.Logf("%d sweeps: %d from a busy crossbar, %d with every input empty, %d forwarding, %d arming a retry",
		sweeps, busy, empty, forwarding, armed)
	if sweeps < 10000 || busy < 1000 || empty < 1000 || forwarding < 1000 || armed < 1000 {
		t.Fatal("random states did not cover every kind of sweep often enough")
	}
}

// firstDiff renders the logs around their first differing entry.
func firstDiff(want, got []string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	from := max(0, i-8)
	var b strings.Builder
	for k := from; k < max(len(want), len(got)) && k < i+4; k++ {
		w, g := "", ""
		if k < len(want) {
			w = want[k]
		}
		if k < len(got) {
			g = got[k]
		}
		mark := "  "
		if w != g {
			mark = "!!"
		}
		fmt.Fprintf(&b, "%s oracle: %s\n%s    new: %s\n", mark, w, mark, g)
	}
	return b.String()
}

// TestSweepEmptyVCArmsAfterForward is the empty-VC skip's trap. A
// response forward leaves the crossbar busy, and no output takes
// another response; the request VC holds no packet, yet its first
// accepting output must still arm the retry, and the rotation must not
// advance. Skipping the empty VC regardless of the crossbar would lose
// that retry and shift every later event.
func TestSweepEmptyVCArmsAfterForward(t *testing.T) {
	m := newMemoRouter(t, 2, 1, 1e9)
	m.block(0, packet.ReadResp)
	m.outs[1].Send(&packet.Packet{ID: 900, Kind: packet.ReadResp}) // takes the wire; one queue slot left
	m.push(0, 1, packet.ReadResp, 1)
	if got, want := m.sweep(), "route:1 fwd:1"; got != want {
		t.Fatalf("sweep log %q, want %q", got, want)
	}
	if !m.r.retryArmed {
		t.Fatal("empty request VC under a busy crossbar armed no retry")
	}
	if m.r.sweepStart != 0 {
		t.Fatalf("sweepStart = %d, want 0: a sweep cut short by the crossbar does not rotate", m.r.sweepStart)
	}
}
