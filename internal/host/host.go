// Package host models one APU memory port: it converts a workload's
// transaction stream into request packets, enforces the memory-level
// parallelism window, acts as the coherence ordering point (a read to an
// address with an outstanding write stalls until the write acknowledgment
// returns — the rule that makes the skip list's divergent read/write
// paths safe, §4.2), and implements the §5.3 write-burst hysteresis that
// temporarily re-admits writes to the short (skip) paths.
package host

import (
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Config parameterizes a port.
type Config struct {
	// MaxOutstanding is the inflight-transaction window.
	MaxOutstanding int
	// HostLatency is the processor-side per-transaction latency; it
	// holds the window slot (and, for writes, the coherence entry)
	// after the response returns, but is not part of network stats.
	HostLatency sim.Time
	// Target is the number of transactions to complete before Done.
	Target uint64

	// ShortcutEnable turns on write-path shortcutting under write bursts
	// (meaningful for the skip list; harmless elsewhere since other
	// topologies route both classes identically).
	ShortcutEnable bool
	// ShortcutHi / ShortcutLo are the engage/release write-fraction
	// watermarks of the hysteresis monitor.
	ShortcutHi, ShortcutLo float64
	// ShortcutWindow is the monitor's sliding window, in transactions.
	ShortcutWindow int

	// Observe, if set, is invoked once per injected transaction with
	// the logical address (the migration manager's profiling hook).
	Observe func(addr uint64)
	// ReadyAt, if set, reports when the block holding an address becomes
	// accessible; injection of transactions to blacked-out blocks
	// (mid-migration) waits.
	ReadyAt func(addr uint64) sim.Time
	// Translate, if set, maps a logical address to its current physical
	// home (the migration indirection table) at injection time.
	Translate func(addr uint64) uint64

	// WavefrontSize groups read transactions GPU-style: a group's
	// window slots are released only when the whole group has
	// completed, modeling warps that stall on their slowest
	// outstanding load. This makes execution time sensitive to
	// latency tails — the quantity the paper's fairness
	// (distance-based arbitration) work improves. Writes retire
	// individually: stores are off the critical path (§4.2), which is
	// the property the skip list exploits. Zero or one retires
	// everything individually.
	WavefrontSize int
}

// Wiring carries the system-level lookup functions the port needs.
type Wiring struct {
	// DestOf maps an address to its destination cube.
	DestOf func(addr uint64) packet.NodeID
	// DistOf returns hop distance from the host to dst in a class.
	DistOf func(dst packet.NodeID, class topology.PathClass) int
}

// Port is one host memory port driving one memory network.
type Port struct {
	eng  *sim.Engine
	cfg  Config
	gen  workload.Generator
	wire Wiring

	out       *link.Direction
	collector *stats.Collector

	inflight int
	injected uint64
	nextID   uint64

	// wavefront completion tracking (reads only): wfLeft[wf] counts
	// outstanding members, wfSize[wf] injected members, wfOf maps a
	// packet ID to its group, and wfNext/wfFill assign arriving reads
	// to groups of WavefrontSize.
	wfLeft map[uint64]int
	wfSize map[uint64]int
	wfOf   map[uint64]uint64
	wfNext uint64
	wfFill int

	staged       workload.Tx
	hasStaged    bool
	stagedArrive sim.Time
	lastArrive   sim.Time

	// pool recycles retired transaction packets; with it, steady-state
	// injection performs no packet allocation.
	pool packet.Pool

	// Bound callbacks, built once so Kick/armTimer/retireSlots schedule
	// without per-call closure allocations.
	pumpFn   sim.Handler
	timerFn  sim.Handler
	retireFn sim.ArgHandler

	// obs, when set (SetObserver), sees every injection.
	obs packet.Observer

	// Coherence ordering point state.
	pendingWrites map[uint64]int
	parkedReads   map[uint64][]parked
	ready         []parked

	// Write-burst hysteresis monitor.
	recent   []bool
	recentAt int
	recentN  int
	writesIn int
	shortcut bool

	kickPending bool
	timerSet    bool
	parks       uint64

	// InjectWait accumulates time transactions spent waiting at the
	// outgoing memory port (window, credit, or coherence stalls) — the
	// queuing the paper observes backing up behind prioritized responses.
	InjectWait sim.Time
}

// parked is a transaction held at the port (coherence or ready queue).
type parked struct {
	tx     workload.Tx
	since  sim.Time
	arrive sim.Time
}

// New creates a port. gen supplies the workload; collector receives
// completions.
func New(eng *sim.Engine, cfg Config, gen workload.Generator, wire Wiring, collector *stats.Collector) *Port {
	if cfg.MaxOutstanding <= 0 {
		panic("host: non-positive window")
	}
	if cfg.ShortcutWindow <= 0 {
		cfg.ShortcutWindow = 64
	}
	p := &Port{
		eng:           eng,
		cfg:           cfg,
		gen:           gen,
		wire:          wire,
		collector:     collector,
		pendingWrites: make(map[uint64]int),
		parkedReads:   make(map[uint64][]parked),
		recent:        make([]bool, cfg.ShortcutWindow),
		wfLeft:        make(map[uint64]int),
		wfSize:        make(map[uint64]int),
		wfOf:          make(map[uint64]uint64),
	}
	p.pumpFn = func() {
		p.kickPending = false
		p.pump()
	}
	p.timerFn = func() {
		p.timerSet = false
		p.pump()
	}
	p.retireFn = func(arg any) {
		p.inflight -= arg.(int)
		p.Kick()
	}
	return p
}

// Attach wires the port's link to the root cube: it sends on out, and it
// owns in's receive end, where each response retires on arrival (the
// host's receive buffering is ample) and its credit goes straight back.
func (p *Port) Attach(out, in *link.Direction) {
	p.out = out
	out.SetOnSpace(func(packet.VC) { p.Kick() })
	in.SetDeliver(func(pk *packet.Packet) {
		vc := packet.VCOf(pk.Kind) // read before retire recycles pk
		p.retire(pk)
		in.ReturnCredit(vc)
	})
}

// SetObserver installs the port's injection observer; nil removes it.
func (p *Port) SetObserver(o packet.Observer) { p.obs = o }

// retire completes the transaction pk answers. Network statistics are
// recorded at arrival; the window slot and any coherence entry are
// released only after the processor-side latency. retire takes
// ownership of pk and returns it to the port's packet pool.
func (p *Port) retire(pk *packet.Packet) {
	pk.Completed = p.eng.Now()
	p.collector.Complete(pk)
	kind, id, logical := pk.Kind, pk.ID, pk.Logical
	// The transaction is retired: every consumer below works from the
	// copied header fields, so the packet can recycle immediately.
	p.pool.Put(pk)
	// Coherence state releases as soon as the ack is visible at the
	// ordering point, independent of wavefront retirement. State is
	// keyed by the logical address (migration may have moved the data).
	if kind == packet.WriteAck {
		p.releaseWrite(logical &^ 63)
	}
	if p.cfg.WavefrontSize > 1 {
		if kind == packet.WriteAck {
			// Stores retire individually: they never gate a wavefront.
			p.retireSlots(1)
			return
		}
		wf := p.wfOf[id]
		delete(p.wfOf, id)
		p.wfLeft[wf]--
		if p.wfLeft[wf] > 0 {
			p.Kick() // coherence release may have unblocked reads
			return
		}
		size := p.wfSize[wf]
		delete(p.wfLeft, wf)
		delete(p.wfSize, wf)
		p.retireSlots(size)
		return
	}
	p.retireSlots(1)
}

// retireSlots frees n window slots after the processor-side latency.
func (p *Port) retireSlots(n int) {
	if p.cfg.HostLatency > 0 {
		// n is a small int, so boxing it into the event argument is
		// allocation-free (runtime small-integer interning).
		p.eng.ScheduleArg(p.cfg.HostLatency, p.retireFn, n)
		return
	}
	p.inflight -= n
	p.Kick()
}

// releaseWrite clears one outstanding write and unparks dependent reads.
func (p *Port) releaseWrite(blk uint64) {
	if n := p.pendingWrites[blk] - 1; n > 0 {
		p.pendingWrites[blk] = n
	} else {
		delete(p.pendingWrites, blk)
		if waiting := p.parkedReads[blk]; len(waiting) > 0 {
			p.ready = append(p.ready, waiting...)
			delete(p.parkedReads, blk)
		}
	}
}

// Done reports whether the port completed its target trace.
func (p *Port) Done() bool { return p.collector.Completed() >= p.cfg.Target }

// WriteShortcut reports whether the hysteresis monitor currently allows
// writes on short paths; the system's route function consults this.
func (p *Port) WriteShortcut() bool { return p.cfg.ShortcutEnable && p.shortcut }

// Inflight reports the current window occupancy (for tests).
func (p *Port) Inflight() int { return p.inflight }

// Injected reports how many transactions have entered the network so
// far (telemetry gauge).
func (p *Port) Injected() uint64 { return p.injected }

// LastArrival reports the arrival-process timestamp of the most recently
// staged transaction (diagnostics).
func (p *Port) LastArrival() sim.Time { return p.lastArrive }

// Parks reports how many reads were parked at the coherence point.
func (p *Port) Parks() uint64 { return p.parks }

// Kick schedules an injection attempt at the current instant.
func (p *Port) Kick() {
	if p.kickPending {
		return
	}
	p.kickPending = true
	p.eng.Schedule(0, p.pumpFn)
}

// pump injects as many transactions as the window, link credits, arrival
// process, and coherence rules allow.
func (p *Port) pump() {
	for {
		if p.injected >= p.cfg.Target {
			return
		}
		if p.inflight >= p.cfg.MaxOutstanding {
			return
		}
		// Coherence-released reads first: they are the oldest work.
		if len(p.ready) > 0 {
			if !p.out.CanAccept(packet.VCRequest) {
				return
			}
			pr := p.ready[0]
			if p.cfg.ReadyAt != nil {
				if at := p.cfg.ReadyAt(pr.tx.Addr); at > p.eng.Now() {
					p.armTimer(at)
					return
				}
			}
			copy(p.ready, p.ready[1:])
			p.ready = p.ready[:len(p.ready)-1]
			p.inject(pr.tx, pr.arrive)
			continue
		}
		// Stage the next generated transaction (held by value: staging
		// must not allocate per transaction).
		if !p.hasStaged {
			p.staged = p.gen.Next()
			p.hasStaged = true
			p.lastArrive += p.staged.Gap
			p.stagedArrive = p.lastArrive
		}
		now := p.eng.Now()
		if p.stagedArrive > now {
			p.armTimer(p.stagedArrive)
			return
		}
		tx := p.staged
		if p.cfg.ReadyAt != nil {
			if at := p.cfg.ReadyAt(tx.Addr); at > now {
				// The block is mid-migration; hold injection until the
				// copy drains.
				p.armTimer(at)
				return
			}
		}
		blk := tx.Addr &^ 63
		if !tx.Write && p.pendingWrites[blk] > 0 {
			// Directory stall: park the read until the write acks.
			p.parks++
			p.parkedReads[blk] = append(p.parkedReads[blk],
				parked{tx: tx, since: now, arrive: p.stagedArrive})
			p.hasStaged = false
			continue
		}
		if !p.out.CanAccept(packet.VCRequest) {
			return
		}
		p.hasStaged = false
		p.inject(tx, p.stagedArrive)
	}
}

// inject builds and sends the request packet for tx.
func (p *Port) inject(tx workload.Tx, arrive sim.Time) {
	now := p.eng.Now()
	p.InjectWait += now - arrive

	kind := packet.ReadReq
	if tx.Write {
		kind = packet.WriteReq
		p.pendingWrites[tx.Addr&^63]++
	}
	p.observe(tx.Write)
	if p.cfg.Observe != nil {
		p.cfg.Observe(tx.Addr)
	}
	physAddr := tx.Addr
	if p.cfg.Translate != nil {
		physAddr = p.cfg.Translate(tx.Addr)
	}

	dst := p.wire.DestOf(physAddr)
	class := topology.ClassOf(kind, p.WriteShortcut())
	p.nextID++
	pk := p.pool.Get()
	*pk = packet.Packet{
		ID:           p.nextID,
		Kind:         kind,
		Src:          packet.HostNode,
		Dst:          dst,
		Addr:         physAddr,
		Logical:      tx.Addr,
		Distance:     p.wire.DistOf(dst, class),
		EnterPort:    -1, // no router ingress yet
		Injected:     now,
		ReadModWrite: tx.RMW,
		Class:        uint8(class),
	}
	p.inflight++
	p.injected++
	if p.obs != nil {
		p.obs.Inject(pk, now-arrive)
	}
	if g := p.cfg.WavefrontSize; g > 1 && kind == packet.ReadReq {
		wf := p.wfNext
		p.wfOf[pk.ID] = wf
		p.wfLeft[wf]++
		p.wfSize[wf]++
		p.wfFill++
		if p.wfFill == g {
			p.wfFill = 0
			p.wfNext++
		}
	}
	p.out.Send(pk)
}

// observe feeds the hysteresis monitor with one injected transaction.
func (p *Port) observe(write bool) {
	if p.recentN == len(p.recent) {
		if p.recent[p.recentAt] {
			p.writesIn--
		}
	} else {
		p.recentN++
	}
	p.recent[p.recentAt] = write
	if write {
		p.writesIn++
	}
	p.recentAt = (p.recentAt + 1) % len(p.recent)

	if p.recentN < len(p.recent)/2 {
		return
	}
	frac := float64(p.writesIn) / float64(p.recentN)
	if !p.shortcut && frac >= p.cfg.ShortcutHi {
		p.shortcut = true
	} else if p.shortcut && frac <= p.cfg.ShortcutLo {
		p.shortcut = false
	}
}

// armTimer schedules a pump at the staged transaction's arrival time.
func (p *Port) armTimer(at sim.Time) {
	if p.timerSet {
		return
	}
	p.timerSet = true
	p.eng.At(at, p.timerFn)
}
