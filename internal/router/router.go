// Package router implements the switch on a memory cube's logic die (and
// on a MetaCube's interface chip): input-buffered ports, per-output
// arbitration over the input queues, and table-driven routing.
//
// The arbitration point here is exactly where the paper's fairness
// analysis applies: each output port independently selects among the
// input queues holding a head packet bound for it. With the baseline
// locally-fair round-robin, a cube whose four local vault queues compete
// against a single upstream queue services local traffic 80% of the time
// — the "parking lot problem" (§3.2) — which the distance-based policy
// (§4.1) corrects.
package router

import (
	"fmt"
	mathbits "math/bits"

	"memnet/internal/arb"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// RouteFunc returns the output-port index a packet should leave through
// at this router. It encapsulates the topology's next-hop tables, the
// read/write path differentiation of the skip list, and local-quadrant
// delivery for packets that have reached their destination cube.
type RouteFunc func(p *packet.Packet) int

// Router is an input-buffered switch with N ports. Port i consists of an
// input buffer (filled by the neighbor's link direction toward us) and
// an output direction (toward the same neighbor). "Neighbors" include
// the cube's own vault quadrants, which occupy the highest port indices.
//
// The router models the cube's centralized switch (§5: "each memory
// package contains a centralized switch") with finite internal
// bandwidth: every packet movement from an input buffer to an output
// queue occupies the crossbar for its serialization time at the switch
// rate. On heavily-transited cubes (every cube of a chain, the root of
// any topology) the crossbar is the contention point where response
// priority delays requests and where the arbitration policy decides who
// ages in the input queues.
type Router struct {
	eng    *sim.Engine
	node   packet.NodeID
	route  RouteFunc
	policy arb.Policy

	in  []*link.Buffer
	out []*link.Direction

	crossbar   sim.Resource
	switchBps  int64
	retryArmed bool
	sweepStart int

	sweepPending bool
	// sweepFn and retryFn are bound once at construction; Kick and
	// armRetry fire constantly on the forwarding path, and a pre-built
	// handler keeps each of those schedules allocation-free.
	sweepFn sim.Handler
	retryFn sim.Handler
	// reroutes holds packets handed back by a failed output link
	// (link.Direction.Fail drains into Reinject); they re-enter the
	// network through the recomputed route tables at the next sweep.
	reroutes []*packet.Packet

	// The route memo of the current (sweep, VC). heads[i] is input i's
	// head packet as last evaluated, and bucket holds, per output, a
	// bitset (words uint64s each) of the inputs whose head routes there.
	// scanned is false until the first candidate scan of the VC
	// evaluates every input; after that only stale (the input popped
	// since the last scan, or -1) is re-evaluated. cands is the
	// candidate list handed to the arbiter. All are sized once, on the
	// first sweep, so forwarding never allocates.
	heads   []*packet.Packet
	bucket  []uint64
	words   int
	scanned bool
	stale   int
	cands   []int

	// Forwarded counts packets moved input->output, per VC.
	Forwarded [packet.NumVCs]uint64
	// Contended counts arbitration decisions with more than one
	// candidate input (where the policy actually matters).
	Contended uint64
	// Rerouted counts packets salvaged off a dead link and re-sent on a
	// route-around path.
	Rerouted uint64

	// obs, when set (SetObserver), sees every arbitration grant.
	obs packet.Observer
}

// New creates a router shell; ports are attached afterwards with
// AttachPort. switchBps is the centralized switch's internal bandwidth
// (0 disables crossbar modeling, giving an ideal switch).
func New(eng *sim.Engine, node packet.NodeID, policy arb.Policy, switchBps int64) *Router {
	r := &Router{eng: eng, node: node, policy: policy, switchBps: switchBps}
	r.sweepFn = func() {
		r.sweepPending = false
		r.sweep()
	}
	r.retryFn = func() {
		r.retryArmed = false
		r.sweep()
	}
	return r
}

// SetRoute installs the routing function. Must be called before traffic
// flows.
func (r *Router) SetRoute(fn RouteFunc) { r.route = fn }

// SetObserver installs the router's grant observer; nil removes it.
func (r *Router) SetObserver(o packet.Observer) { r.obs = o }

// Node reports the router's node ID.
func (r *Router) Node() packet.NodeID { return r.node }

// NumPorts reports the attached port count.
func (r *Router) NumPorts() int { return len(r.in) }

// AttachPort adds a port and returns its index. in receives packets from
// the neighbor; out sends toward the neighbor. The router registers
// itself for out's space-available callbacks. A router has at most
// packet.MaxPorts ports: Deliver stamps the index into an int8.
func (r *Router) AttachPort(in *link.Buffer, out *link.Direction) int {
	idx := len(r.in)
	if idx >= packet.MaxPorts {
		panic(fmt.Sprintf("router: node %d: more than %d ports", r.node, packet.MaxPorts))
	}
	r.in = append(r.in, in)
	r.out = append(r.out, out)
	out.SetOnSpace(func(packet.VC) { r.Kick() })
	return idx
}

// Deliver is the arrival entry point for port i; wire it as the
// neighbor direction's deliver callback.
func (r *Router) Deliver(i int) func(*packet.Packet) {
	return func(p *packet.Packet) {
		p.EnterPort = int8(i)
		r.in[i].Push(p, r.eng.Now())
		r.Kick()
	}
}

// InputBuffer exposes port i's input buffer (for wiring and stats).
func (r *Router) InputBuffer(i int) *link.Buffer { return r.in[i] }

// Output exposes port i's output direction (for wiring and stats).
func (r *Router) Output(i int) *link.Direction { return r.out[i] }

// Reinject hands the router a packet salvaged from a failed output link
// (or bounced off a dead neighbor). The packet waits in a side queue and
// leaves through whatever port the current route tables choose — which,
// after a fault swap, is the route-around path.
func (r *Router) Reinject(p *packet.Packet) {
	r.reroutes = append(r.reroutes, p)
	r.Kick()
}

// RerouteBacklog reports how many salvaged packets still await a free
// output (for the wedge diagnostic dump).
func (r *Router) RerouteBacklog() int { return len(r.reroutes) }

// Kick schedules a forwarding sweep at the current instant (idempotent
// per instant).
func (r *Router) Kick() {
	if r.sweepPending {
		return
	}
	r.sweepPending = true
	r.eng.Schedule(0, r.sweepFn)
}

// sweep moves as many packets as buffers, credits, crossbar bandwidth,
// and arbitration allow. All outputs' response traffic is considered
// before any request traffic, matching the deadlock-avoidance priority:
// under switch contention this is precisely what backs requests up
// behind responses (§3.2). The output scan order rotates between sweeps
// so no port is structurally favored within a priority class.
//
// A sweep costs what it can move. Under a busy crossbar drain arms the
// retry at the first output that accepts, before any scan or route
// call. A VC with no queued packet is skipped, but only while the
// crossbar is idle or unmodelled: after a response forward the crossbar
// is busy, and an empty request VC must still arm that retry.
func (r *Router) sweep() {
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
		if !r.crossbarBusy() && !r.queued(vc) {
			continue
		}
		r.scanned = false
		for k := 0; k < n; k++ {
			if !r.drain((r.sweepStart+k)%n, vc) {
				return // crossbar busy; retry armed
			}
		}
	}
	r.sweepStart++
}

// crossbarBusy reports whether a modelled crossbar is still moving an
// earlier packet.
func (r *Router) crossbarBusy() bool {
	return r.switchBps > 0 && !r.crossbar.Idle(r.eng.Now())
}

// queued reports whether some input holds a vc packet.
func (r *Router) queued(vc packet.VC) bool {
	for _, b := range r.in {
		if b.Len(vc) > 0 {
			return true
		}
	}
	return false
}

// drain forwards packets from eligible input heads to output o, vc,
// until space, candidates, credits, or switch bandwidth run out. It
// returns false when the crossbar is busy (a retry has been armed).
func (r *Router) drain(o int, vc packet.VC) bool {
	for r.out[o].CanAccept(vc) {
		if r.crossbarBusy() {
			r.armRetry()
			return false
		}
		r.scan(vc)
		r.cands = r.cands[:0]
		for w, bits := range r.bucket[o*r.words : (o+1)*r.words] {
			for ; bits != 0; bits &= bits - 1 {
				r.cands = append(r.cands, w*64+mathbits.TrailingZeros64(bits))
			}
		}
		if len(r.cands) == 0 {
			return true
		}
		if len(r.cands) > 1 {
			r.Contended++
		}
		pick := r.policy.Pick(o, vc, r.cands, r.heads)
		var since sim.Time
		if r.obs != nil {
			since = r.in[pick].HeadSince(vc)
		}
		p := r.in[pick].Pop(vc, r.eng.Now())
		r.bucket[o*r.words+pick/64] &^= 1 << (pick % 64)
		r.heads[pick] = nil
		r.stale = pick
		r.Forwarded[vc]++
		if r.obs != nil {
			r.obs.Grant(p, pick, r.eng.Now()-since)
		}
		if r.switchBps > 0 {
			r.crossbar.Reserve(r.eng.Now(), sim.BitTime(p.Kind.Bits(), r.switchBps))
		}
		r.out[o].Send(p)
	}
	return true
}

// scan brings the route memo up to date before a candidate scan. The
// route function is evaluated lazily, exactly where a scan first needs
// it, because it is not pure across events: the core route closure
// re-homes requests bound for a killed cube (rewriting Dst and counting
// the bounce) and reads fault state that changes between events.
// Within one sweep event its answer for a given head is fixed, so each
// head is evaluated once: every input at the VC's first scan, then only
// the input popped since the previous scan.
func (r *Router) scan(vc packet.VC) {
	if !r.scanned {
		clear(r.bucket)
		for i := range r.in {
			r.evaluate(i, vc)
		}
		r.scanned = true
	} else if r.stale >= 0 {
		r.evaluate(r.stale, vc)
	}
	r.stale = -1
}

// evaluate memoises input i's head for vc and files it in the bucket of
// the output it routes to. The entry port is a legal output: shortest-
// path tables never route a packet back out the port it entered, but
// after a mid-run fault swap a packet caught traveling toward a dead
// link must U-turn. Routes outside the port range match no output.
func (r *Router) evaluate(i int, vc packet.VC) {
	head := r.in[i].Head(vc)
	r.heads[i] = head
	if head == nil {
		return
	}
	if o := r.route(head); o >= 0 && o < len(r.out) {
		r.bucket[o*r.words+i/64] |= 1 << (i % 64)
	}
}

// drainReroutes re-sends salvaged packets through the current route
// tables, ahead of regular arbitration (they already paid their queuing
// dues on the dead link). Packets that find no output space stay queued;
// output OnSpace callbacks re-kick the sweep.
func (r *Router) drainReroutes() {
	if len(r.reroutes) == 0 {
		return
	}
	kept := r.reroutes[:0]
	for _, p := range r.reroutes {
		o := r.route(p)
		vc := packet.VCOf(p.Kind)
		if o >= 0 && r.out[o].CanAccept(vc) {
			r.Rerouted++
			r.out[o].Send(p)
		} else {
			kept = append(kept, p)
		}
	}
	r.reroutes = kept
}

// armRetry schedules a sweep for the instant the crossbar frees.
func (r *Router) armRetry() {
	if r.retryArmed {
		return
	}
	r.retryArmed = true
	r.eng.At(r.crossbar.FreeAt(), r.retryFn)
}

// TotalInputWait sums the input-buffer residency across ports — the
// per-router queuing metric of the §3.2 analysis.
func (r *Router) TotalInputWait() sim.Time {
	var t sim.Time
	for _, b := range r.in {
		t += b.TotalWait()
	}
	return t
}
