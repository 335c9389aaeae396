// Package link models the point-to-point SerDes channels that connect
// memory cubes to each other and to the host, including the behaviors the
// paper identifies as first-order: finite serialization bandwidth (16
// lanes x 15 Gbps per direction), a fixed 2 ns SerDes latency per
// traversal, credit-based flow control against finite receiver buffers,
// and two virtual channels with responses strictly prioritized over
// requests (the deadlock-avoidance rule that backs requests up behind
// responses, Section 3.2).
//
// A physical link is a pair of independent Directions. The same Direction
// type also models cube-internal connections (router <-> vault quadrant,
// interposer traces inside a MetaCube) with different constants.
package link

import (
	"fmt"

	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Meter receives a callback per completed hop for energy accounting.
type Meter interface {
	Hop(bits int)
}

// nopMeter is used when no energy accounting is attached.
type nopMeter struct{}

func (nopMeter) Hop(int) {}

// Config are the constants of one direction.
type Config struct {
	// BandwidthBps is the serialization bandwidth in bits per second.
	BandwidthBps int64
	// SerDesLatency is added once per traversal after serialization.
	SerDesLatency sim.Time
	// QueueDepth bounds the per-VC output queue on the sending side.
	QueueDepth int
	// Credits is the per-VC receiver buffer depth this direction may
	// consume; transmission of a packet requires (and consumes) one.
	Credits int
	// NoVCPriority disables the default response-over-request
	// prioritization, falling back to round-robin between VCs. Used by
	// ablation experiments.
	NoVCPriority bool
	// CountHop controls whether traversals are charged network energy
	// and counted in Packet.Hops. True for package-to-package links,
	// false for cube-internal router<->vault connections.
	CountHop bool
}

// Stats aggregates per-direction counters.
type Stats struct {
	Sent        [packet.NumVCs]uint64
	BitsSent    uint64
	QueueWait   sim.Time // total time packets spent in the output queue
	BusyTime    sim.Time // wire occupancy
	CreditStall uint64   // packets deferred at least once for lack of credit
	CRCErrors   uint64   // transmissions corrupted in flight (failed CRC)
	Retries     uint64   // retransmissions out of the retry buffer
	Dropped     uint64   // packets abandoned after exhausting MaxRetries
	Retrains    uint64   // completed retraining cycles (returns to service)
}

// State is a direction's service state. A failed direction moves
// Up -> Down (Fail), holds Down until the physical repair lands, then
// retrains (BeginRetrain) for a configured sim-time window before
// CompleteRetrain returns it to service. Down and Retraining both
// accept and transmit nothing; they are distinct so observability can
// tell a dead link from one coming back.
type State uint8

const (
	// Up is the normal in-service state.
	Up State = iota
	// Down is a failed direction awaiting repair.
	Down
	// Retraining is the recovery window between repair and service.
	Retraining
)

// String renders the state for logs and gauges.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Down:
		return "down"
	case Retraining:
		return "retraining"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Direction is one half of a full-duplex link: a bounded per-VC output
// queue, a serially-reusable wire, and a credit counter for the remote
// input buffer.
type Direction struct {
	eng   *sim.Engine
	cfg   Config
	meter Meter

	wire    sim.Resource
	queue   [packet.NumVCs]ring[entry]
	credits [packet.NumVCs]int

	// deliver is invoked at the receiver when a packet lands (after
	// serialization + SerDes latency). Wired by the owning node.
	deliver func(*packet.Packet)
	// onSpace, if set, is invoked whenever a slot frees in the output
	// queue of the given VC, letting the upstream router resume moving
	// packets out of its input buffers.
	onSpace func(packet.VC)

	pumpScheduled bool
	lastVC        packet.VC // round-robin state when NoVCPriority
	// stalled marks a VC whose head packet has already been counted in
	// Stats.CreditStall, so pump re-probes don't inflate the counter; the
	// flag clears when that VC next transmits.
	stalled [packet.NumVCs]bool
	// state is the service-state machine; mnlint's fsmcheck analyzer
	// verifies every write follows the declared transitions. It sits with
	// the 1-byte fields to keep Direction in the 384 B size class.
	//lint:fsm up->down,down->retraining,retraining->up
	state State

	// flt, when non-nil, injects CRC failures on every transmission; the
	// corrupted packet is held in retryQ (the HMC-style link retry
	// buffer) and retransmitted after an ack round-trip plus exponential
	// backoff. Nil keeps the hot path schedule-identical to a fault-free
	// link.
	flt    *fault.LinkFault
	retryQ []retryEntry

	// origBps is the full-width serialization bandwidth bound at
	// construction; retraining and flap recovery re-bind to it.
	origBps int64
	// outstanding counts, per VC, packets launched toward the receiver
	// whose credit will eventually come back via ReturnCredit (in
	// flight on the wire or parked in the remote input buffer). It is
	// what CompleteRetrain subtracts when it re-arms the credit
	// counters, so stale returns arriving after recovery cannot
	// overflow them.
	outstanding [packet.NumVCs]int
	// healedBits counts bits sent after the direction's first
	// completed retraining — the route-back evidence FaultCounters
	// exposes as HealedBits.
	healedBits uint64

	// pumpFn and arriveFn are bound once at construction so the per-packet
	// hot path schedules them without allocating a closure.
	pumpFn   sim.Handler
	arriveFn sim.ArgHandler

	// obs, when set (SetObserver), sees every transmission that will
	// land (Ship) and every arrival just before delivery (Land).
	obs packet.Observer

	stats Stats
}

type entry struct {
	p        *packet.Packet
	enqueued sim.Time
}

// retryEntry is one packet parked in the retry buffer. It still holds
// the receiver credit consumed by its first transmission, so the remote
// buffer slot stays reserved until delivery or drop.
type retryEntry struct {
	p        *packet.Packet
	vc       packet.VC
	bits     int
	attempts int // transmissions so far
	readyAt  sim.Time
	// enq/pop carry the original queue residence bounds across retries
	// so the observer's Ship can attribute the full traversal.
	enq, pop sim.Time
}

// New returns a Direction. deliver must be non-nil before the first Send.
func New(eng *sim.Engine, cfg Config, meter Meter) *Direction {
	if cfg.QueueDepth <= 0 || cfg.Credits <= 0 {
		panic(fmt.Sprintf("link: non-positive queue depth %d or credits %d",
			cfg.QueueDepth, cfg.Credits))
	}
	if cfg.BandwidthBps <= 0 {
		panic(fmt.Sprintf("link: non-positive bandwidth %d bps", cfg.BandwidthBps))
	}
	if cfg.SerDesLatency < 0 {
		panic(fmt.Sprintf("link: negative SerDes latency %v", cfg.SerDesLatency))
	}
	if meter == nil {
		meter = nopMeter{}
	}
	d := &Direction{eng: eng, cfg: cfg, meter: meter, origBps: cfg.BandwidthBps}
	for vc := range d.credits {
		d.credits[vc] = cfg.Credits
		d.queue[vc] = newRing[entry](cfg.QueueDepth)
	}
	d.pumpFn = func() {
		d.pumpScheduled = false
		d.pump()
	}
	d.arriveFn = d.arrive
	return d
}

// SetDeliver wires the receiver callback.
func (d *Direction) SetDeliver(fn func(*packet.Packet)) { d.deliver = fn }

// SetOnSpace wires the output-queue-space callback.
func (d *Direction) SetOnSpace(fn func(packet.VC)) { d.onSpace = fn }

// SetObserver installs the direction's observer; nil removes it.
func (d *Direction) SetObserver(o packet.Observer) { d.obs = o }

// SerDes reports the direction's fixed per-traversal SerDes latency.
func (d *Direction) SerDes() sim.Time { return d.cfg.SerDesLatency }

// BufferDepth reports the per-VC receiver buffer depth the direction's
// credits track (Config.Credits): the depth of the buffer it delivers to.
func (d *Direction) BufferDepth() int { return d.cfg.Credits }

// AttachFault arms CRC-failure injection on this direction. Call before
// traffic flows; a nil model leaves the direction fault-free.
func (d *Direction) AttachFault(f *fault.LinkFault) { d.flt = f }

// Stats returns a copy of the direction's counters.
func (d *Direction) Stats() Stats { return d.stats }

// CanAccept reports whether the output queue of vc has room. A failed
// or retraining direction accepts nothing.
func (d *Direction) CanAccept(vc packet.VC) bool {
	return d.state == Up && !d.queue[vc].full()
}

// QueueLen reports the occupancy of the vc output queue.
func (d *Direction) QueueLen(vc packet.VC) int { return d.queue[vc].len() }

// Credits reports the transmit credits currently available for vc.
func (d *Direction) Credits(vc packet.VC) int { return d.credits[vc] }

// RetryLen reports how many packets sit in the retry buffer.
func (d *Direction) RetryLen() int { return len(d.retryQ) }

// Bandwidth reports the current serialization bandwidth, after any
// down-binding.
func (d *Direction) Bandwidth() int64 { return d.cfg.BandwidthBps }

// VCRoundRobin reports whether response-over-request priority is
// disabled (round-robin between VCs; the single-VC ablation).
func (d *Direction) VCRoundRobin() bool { return d.cfg.NoVCPriority }

// Dead reports whether the direction is out of service (failed or
// still retraining).
func (d *Direction) Dead() bool { return d.state != Up }

// State reports the direction's service state.
func (d *Direction) State() State { return d.state }

// HealedBits reports the bits transmitted since the direction's first
// completed retraining: nonzero exactly when traffic routed back onto
// this direction after a repair.
func (d *Direction) HealedBits() uint64 { return d.healedBits }

// Downbind halves the serialization bandwidth, modeling an HMC link
// dropping to half width after a SerDes lane failure. Transmissions
// already on the wire finish at the old rate.
func (d *Direction) Downbind() {
	if d.cfg.BandwidthBps > 1 {
		d.cfg.BandwidthBps /= 2
	}
}

// Rebind restores the full-width serialization bandwidth bound at
// construction — the Up half of a lane flap, where the lane retrains
// while the link keeps running at reduced width.
func (d *Direction) Rebind() {
	d.cfg.BandwidthBps = d.origBps
}

// Fail kills the direction. Every packet waiting in the output queues or
// parked in the retry buffer is handed to drain (for the owning router to
// re-route); packets already serialized onto the wire still land at the
// receiver. After Fail the direction accepts nothing and transmits
// nothing until a BeginRetrain/CompleteRetrain cycle restores it.
func (d *Direction) Fail(drain func(*packet.Packet)) {
	if d.state != Up {
		panic(fmt.Sprintf("link: Fail on a direction already %v", d.state))
	}
	d.state = Down
	for vc := range d.queue {
		for d.queue[vc].len() > 0 {
			drain(d.queue[vc].pop().p)
		}
	}
	for _, r := range d.retryQ {
		drain(r.p)
	}
	d.retryQ = nil
}

// BeginRetrain moves a failed direction into the retraining state: the
// physical repair has landed, the SerDes is re-acquiring lane lock,
// and no traffic flows yet.
func (d *Direction) BeginRetrain() {
	if d.state != Down {
		panic(fmt.Sprintf("link: BeginRetrain on a direction that is %v, not down", d.state))
	}
	d.state = Retraining
}

// CompleteRetrain returns a retraining direction to service with fresh
// per-packet state: the full lane set re-binds (restoring the
// construction-time bandwidth), the retry buffer and its exponential
// backoff are gone (Fail drained them), per-VC credit-stall latches
// clear, and the credit counters re-arm to capacity minus the packets
// still outstanding at the receiver — whose eventual ReturnCredits
// then restore full capacity without overflow. Upstream routers are
// notified of the empty output queues (onSpace) so traffic drains back
// onto the healed direction immediately.
func (d *Direction) CompleteRetrain() {
	if d.state != Retraining {
		panic(fmt.Sprintf("link: CompleteRetrain on a direction that is %v, not retraining", d.state))
	}
	d.state = Up
	d.cfg.BandwidthBps = d.origBps
	d.retryQ = nil
	d.stats.Retrains++
	for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
		d.credits[vc] = d.cfg.Credits - d.outstanding[vc]
		d.stalled[vc] = false
	}
	if d.onSpace != nil {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			d.onSpace(vc)
		}
	}
	d.pump()
}

// Send enqueues p for transmission. The caller must have checked
// CanAccept; Send panics on overflow to surface flow-control bugs.
func (d *Direction) Send(p *packet.Packet) {
	if d.state != Up {
		panic(fmt.Sprintf("link: send on %v link for %v", d.state, p))
	}
	vc := packet.VCOf(p.Kind)
	if !d.CanAccept(vc) {
		panic(fmt.Sprintf("link: output queue overflow on %v for %v", vc, p))
	}
	d.queue[vc].push(entry{p: p, enqueued: d.eng.Now()})
	d.pump()
}

// ReturnCredit is called by the receiving node when it frees one input
// buffer slot of the given VC.
func (d *Direction) ReturnCredit(vc packet.VC) {
	d.credits[vc]++
	d.outstanding[vc]--
	if d.credits[vc] > d.cfg.Credits || d.outstanding[vc] < 0 {
		panic("link: credit overflow")
	}
	d.pump()
}

// pump attempts to start a transmission now, or schedules a retry when
// the wire frees. Ready retransmissions take the wire before fresh
// queue traffic (they hold receiver credits, so landing them first
// unblocks the most). It is idempotent per simulated instant.
func (d *Direction) pump() {
	if d.state != Up || d.pumpScheduled {
		return
	}
	now := d.eng.Now()
	if !d.wire.Idle(now) {
		d.pumpScheduled = true
		d.eng.At(d.wire.FreeAt(), d.pumpFn)
		return
	}
	if d.sendRetry(now) {
		d.pump()
		return
	}
	vc, ok := d.pickVC()
	if !ok {
		return
	}
	d.transmit(vc)
	// Another VC may still have eligible traffic; pump re-runs when the
	// wire frees via the scheduling above on the next call.
	d.pump()
}

// pickVC chooses the next virtual channel to serve: responses first by
// default (the deadlock-avoidance priority), else round-robin.
func (d *Direction) pickVC() (packet.VC, bool) {
	eligible := func(vc packet.VC) bool {
		if d.queue[vc].len() == 0 {
			return false
		}
		if d.credits[vc] == 0 {
			// One stall per deferred packet: the flag holds until this
			// VC transmits, so pump re-probes of the same stuck head
			// don't recount it.
			if !d.stalled[vc] {
				d.stalled[vc] = true
				d.stats.CreditStall++
			}
			return false
		}
		return true
	}
	if !d.cfg.NoVCPriority {
		if eligible(packet.VCResponse) {
			return packet.VCResponse, true
		}
		if eligible(packet.VCRequest) {
			return packet.VCRequest, true
		}
		return 0, false
	}
	for i := packet.VC(0); i < packet.NumVCs; i++ {
		vc := (d.lastVC + 1 + i) % packet.NumVCs
		if eligible(vc) {
			d.lastVC = vc
			return vc, true
		}
	}
	return 0, false
}

// transmit pops the head of vc and occupies the wire for its
// serialization time; delivery fires after the additional SerDes latency.
func (d *Direction) transmit(vc packet.VC) {
	e := d.queue[vc].pop()
	d.credits[vc]--
	d.stalled[vc] = false

	now := d.eng.Now()
	d.stats.QueueWait += now - e.enqueued
	bits := e.p.Kind.Bits()
	ser := sim.BitTime(bits, d.cfg.BandwidthBps)
	_, end := d.wire.Reserve(now, ser)
	d.stats.BusyTime += end - now
	d.stats.Sent[vc]++
	d.stats.BitsSent += uint64(bits)
	if d.stats.Retrains > 0 {
		d.healedBits += uint64(bits)
	}

	d.finishTransmit(e.p, vc, 1, end, bits, e.enqueued, now)

	if d.onSpace != nil {
		d.onSpace(vc)
	}
}

// finishTransmit resolves one wire occupancy that ends at end: either
// the packet lands after the SerDes latency, or (with a fault model
// attached) its CRC check fails and it parks in the retry buffer. A
// retransmission becomes eligible only after the implicit-ack round
// trip (two SerDes traversals) plus an exponential backoff that doubles
// per consecutive error, capped at 64x.
func (d *Direction) finishTransmit(p *packet.Packet, vc packet.VC, attempts int, end sim.Time, bits int, enq, pop sim.Time) {
	if d.flt != nil && d.flt.Corrupt(bits) {
		d.stats.CRCErrors++
		if d.flt.MaxRetries > 0 && attempts > d.flt.MaxRetries {
			d.stats.Dropped++
			d.credits[vc]++ // the receiver slot was never filled
			return
		}
		shift := uint(attempts - 1)
		if shift > 6 {
			shift = 6
		}
		readyAt := end + 2*d.cfg.SerDesLatency + d.flt.Backoff<<shift
		d.retryQ = append(d.retryQ, retryEntry{p: p, vc: vc, bits: bits, attempts: attempts, readyAt: readyAt, enq: enq, pop: pop})
		d.eng.At(readyAt, d.pumpFn)
		return
	}
	if d.obs != nil {
		// The final wire occupancy started when the ending Reserve was
		// taken — at the current instant for both fresh transmissions and
		// retries (the wire was idle when either path reserved it).
		d.obs.Ship(p, enq, pop, d.eng.Now(), end)
	}
	// The transmission will land: its credit is now owed back by the
	// receiver (CompleteRetrain subtracts these when re-arming credits).
	d.outstanding[vc]++
	d.eng.AtArg(end+d.cfg.SerDesLatency, d.arriveFn, p)
}

// sendRetry retransmits the first retry-buffer entry whose backoff has
// elapsed, if any. The wire must be idle. The entry keeps its original
// credit, so no new credit is consumed.
func (d *Direction) sendRetry(now sim.Time) bool {
	for i, r := range d.retryQ {
		if r.readyAt > now {
			continue
		}
		d.retryQ = append(d.retryQ[:i], d.retryQ[i+1:]...)
		ser := sim.BitTime(r.bits, d.cfg.BandwidthBps)
		_, end := d.wire.Reserve(now, ser)
		d.stats.BusyTime += end - now
		d.stats.Retries++
		d.stats.BitsSent += uint64(r.bits)
		if d.stats.Retrains > 0 {
			d.healedBits += uint64(r.bits)
		}
		d.finishTransmit(r.p, r.vc, r.attempts+1, end, r.bits, r.enq, r.pop)
		return true
	}
	return false
}

// arrive lands a packet at the receiver after serialization + SerDes
// latency. It is scheduled through the bound arriveFn with the packet as
// the event argument (no per-packet closure).
func (d *Direction) arrive(arg any) {
	p := arg.(*packet.Packet)
	if d.cfg.CountHop {
		p.Hops++
		d.meter.Hop(p.Kind.Bits())
	}
	if d.obs != nil {
		d.obs.Land(p)
	}
	d.deliver(p)
}
