// Package vault implements a memory cube quadrant: the memory controller
// that fronts one quarter of the cube's banks. It pulls requests from the
// cube router, applies the intra-cube wrong-quadrant routing penalty,
// performs the bank access through the mem timing model, and formulates
// response packets back into the router — stalling (and therefore
// exerting backpressure into the network) when its inflight window or
// the response path fills, which is how NVM write occupancy propagates
// into network queuing in the paper's analysis (§5.2).
package vault

import (
	"memnet/internal/config"
	"memnet/internal/energy"
	"memnet/internal/link"
	"memnet/internal/mem"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// AccessBits is the data moved per array access (64B), used for energy
// accounting.
const AccessBits = 64 * 8

// BankMap resolves a packet address to this quadrant's bank index and
// row.
type BankMap func(addr uint64) (bank int, row int64)

// ReturnDist computes the hop distance of the response path back to the
// packet's source; it is stamped into the response header for the
// distance-based arbitration downstream.
type ReturnDist func(p *packet.Packet) int

// Stats aggregates quadrant counters.
type Stats struct {
	Reads       uint64
	Writes      uint64
	WrongQuad   uint64
	QueueWait   sim.Time // request residency in the vault input queue
	ServiceTime sim.Time // pop -> response handoff
}

// Quadrant is one vault controller.
type Quadrant struct {
	eng   *sim.Engine
	index int
	// extPorts is the owning cube's external-link count; quadrant q is
	// associated with external link q mod extPorts for the
	// wrong-quadrant penalty.
	extPorts int
	penalty  sim.Time

	banks   mem.Array
	bankMap BankMap
	retDist ReturnDist
	meter   *energy.Meter

	in  *link.Buffer
	out *link.Direction

	maxInflight int
	inflight    int
	done        []*packet.Packet

	pumpPending bool
	// pumpFn and completeFn are bound once at construction so the
	// per-request hot path (kick per arrival, completion per bank access)
	// schedules without allocating closures.
	pumpFn     sim.Handler
	completeFn sim.ArgHandler
	stats      Stats

	// obs, when set (SetObserver), sees every bank issue.
	obs packet.Observer
}

// Config bundles quadrant construction parameters.
type Config struct {
	Tech        config.MemTech
	Timing      config.MemTiming
	Index       int
	ExtPorts    int
	Penalty     sim.Time
	Banks       int
	MaxInflight int
	BankMap     BankMap
	ReturnDist  ReturnDist
	Meter       *energy.Meter
}

// New builds a quadrant with its banks. Refresh phases are staggered by
// bank index so a cube's banks do not refresh in lockstep.
func New(eng *sim.Engine, cfg Config) *Quadrant {
	q := &Quadrant{
		eng:         eng,
		index:       cfg.Index,
		extPorts:    cfg.ExtPorts,
		penalty:     cfg.Penalty,
		bankMap:     cfg.BankMap,
		retDist:     cfg.ReturnDist,
		meter:       cfg.Meter,
		maxInflight: cfg.MaxInflight,
	}
	if q.maxInflight <= 0 {
		q.maxInflight = 16
	}
	const stagger = 97 * sim.Nanosecond
	q.banks = mem.MakeArray(cfg.Tech, cfg.Timing, cfg.Banks,
		sim.Time(cfg.Index*cfg.Banks)*stagger, stagger)
	q.pumpFn = func() {
		q.pumpPending = false
		q.pump()
	}
	q.completeFn = func(arg any) { q.complete(arg.(*packet.Packet)) }
	return q
}

// Attach wires the quadrant to its router-side connections: in delivers
// requests (the buffer fed by the router's output direction toward this
// quadrant) and out carries responses back into the router.
func (q *Quadrant) Attach(in *link.Buffer, out *link.Direction) {
	q.in = in
	q.out = out
	out.SetOnSpace(func(packet.VC) { q.kick() })
}

// SetObserver installs the quadrant's issue observer; nil removes it.
func (q *Quadrant) SetObserver(o packet.Observer) { q.obs = o }

// Output exposes the response direction into the router.
func (q *Quadrant) Output() *link.Direction { return q.out }

// Deliver is the arrival callback for the router->quadrant direction.
func (q *Quadrant) Deliver() func(*packet.Packet) {
	return func(p *packet.Packet) {
		p.ArrivedMem = q.eng.Now()
		q.in.Push(p, q.eng.Now())
		q.kick()
	}
}

// Tech reports the quadrant's memory technology.
func (q *Quadrant) Tech() config.MemTech { return q.banks.Tech() }

// Stats returns a copy of the counters.
func (q *Quadrant) Stats() Stats { return q.stats }

// Inflight reports the current occupancy of the bank-access window
// (telemetry gauge).
func (q *Quadrant) Inflight() int { return q.inflight }

// QueueLen reports queued work at the vault: requests waiting for a
// window slot plus completed responses awaiting router space
// (telemetry gauge).
func (q *Quadrant) QueueLen() int {
	return q.in.Len(packet.VCRequest) + len(q.done)
}

// BankStats returns the counters summed over the quadrant's banks.
func (q *Quadrant) BankStats() mem.BankStats { return q.banks.Stats() }

func (q *Quadrant) kick() {
	if q.pumpPending {
		return
	}
	q.pumpPending = true
	q.eng.Schedule(0, q.pumpFn)
}

// pump advances both ends of the quadrant pipeline: emit completed
// responses while the router accepts them, and issue new bank accesses
// while the inflight window has room.
func (q *Quadrant) pump() {
	// Drain completions first so inflight slots free up.
	for len(q.done) > 0 && q.out.CanAccept(packet.VCResponse) {
		p := q.done[0]
		copy(q.done, q.done[1:])
		q.done = q.done[:len(q.done)-1]
		q.emit(p)
	}
	// Issue new accesses.
	for q.inflight < q.maxInflight && q.in.Len(packet.VCRequest) > 0 {
		p := q.in.Pop(packet.VCRequest, q.eng.Now())
		q.start(p)
	}
}

// start begins the bank access for a request.
func (q *Quadrant) start(p *packet.Packet) {
	now := q.eng.Now()
	q.stats.QueueWait += now - p.ArrivedMem
	if q.obs != nil {
		q.obs.Issue(p, now-p.ArrivedMem)
	}
	start := now
	if q.extPorts > 0 && int(p.EnterPort)%max(1, q.extPorts) != q.index%max(1, q.extPorts) {
		// The request entered the cube through a link belonging to a
		// different quadrant: 1 ns intra-cube re-route (§5).
		start += q.penalty
		q.stats.WrongQuad++
	}
	bank, row := q.bankMap(p.Addr)
	kind := mem.Read
	if p.Kind == packet.WriteReq {
		kind = mem.Write
		q.stats.Writes++
	} else {
		q.stats.Reads++
	}
	q.inflight++
	done := q.banks.Access(bank, start, row, kind)
	q.meter.Access(q.banks.Tech(), kind == mem.Write, AccessBits)
	q.eng.AtArg(done, q.completeFn, p)
}

// complete converts the finished request into a response and emits it,
// or parks it when the response path is full.
func (q *Quadrant) complete(p *packet.Packet) {
	p.MakeResponse(q.retDist(p))
	if q.out.CanAccept(packet.VCResponse) && len(q.done) == 0 {
		q.emit(p)
	} else {
		q.done = append(q.done, p)
	}
	// Either way, see if new requests can issue (a slot freed only on
	// emit; pump also drains parked work when space appears).
	q.kick()
}

// emit hands a response to the router and frees the inflight slot.
func (q *Quadrant) emit(p *packet.Packet) {
	now := q.eng.Now()
	p.DepartedMem = now
	p.MemLatency = now - p.ArrivedMem
	q.stats.ServiceTime += now - p.ArrivedMem
	q.inflight--
	q.out.Send(p)
}
