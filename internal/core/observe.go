package core

import (
	"fmt"
	"strconv"
	"strings"

	"memnet/internal/link"
	"memnet/internal/mem"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/topology"
	"memnet/internal/trace"
	"memnet/internal/vault"
)

// observer is the run's packet.Observer, one value per component: a
// link direction's carries its receiver's trace identity (op, node,
// input port), a router's its telemetry grant counts, and each its span
// label. Its methods feed whichever of Trace, Spans and Telemetry is on.
type observer struct {
	in     *Instance
	op     trace.Op
	port   int8
	node   packet.NodeID
	serdes sim.Time
	label  string
	grants []uint64
}

// record appends p's lifecycle event at the observer's node and port.
func (o *observer) record(op trace.Op, p *packet.Packet) {
	if l := o.in.Trace; l != nil {
		l.Record(trace.Event{At: o.in.Eng.Now(), Op: op, Node: o.node, Port: o.port,
			VC: packet.VCOf(p.Kind), ID: p.ID, Kind: p.Kind, Addr: p.Addr})
	}
}

func (o *observer) Inject(p *packet.Packet, wait sim.Time) {
	o.in.Spans.Start(p, o.in.Eng.Now(), wait)
	o.record(trace.Inject, p)
}

func (o *observer) Ship(p *packet.Packet, enq, pop, start, end sim.Time) {
	o.in.Spans.Ship(p, o.label, o.serdes, enq, pop, start, end)
}

// Land records the arrival; at the host it also closes the transaction
// in telemetry and spans, before the host retires (and pools) p.
func (o *observer) Land(p *packet.Packet) {
	o.record(o.op, p)
	if o.op != trace.Complete {
		return
	}
	now := o.in.Eng.Now()
	if t := o.in.Telemetry; t != nil {
		t.latency.Observe(now - p.Injected)
		if i := t.svcIdx[p.Src]; i >= 0 {
			t.service[i]++
		}
	}
	o.in.Spans.Complete(p, now)
}

func (o *observer) Grant(p *packet.Packet, port int, wait sim.Time) {
	if o.grants != nil {
		o.grants[port]++
	}
	o.in.Spans.Seg(p, span.RouterArb, o.label, o.in.Eng.Now()-wait, wait)
}

func (o *observer) Issue(p *packet.Packet, wait sim.Time) {
	o.in.Spans.VaultIssue(p, o.label, o.in.Eng.Now(), wait)
}

// observe is Build's last stage: after every port is attached (so every
// export is a pure function of the topology) it arms the layers Params
// asks for and gives each component an observer, or returns at once.
func (in *Instance) observe() {
	p := &in.Params
	if p.TraceDepth > 0 {
		in.Trace = trace.NewLog(p.TraceDepth)
	}
	if p.Spans.Enabled() {
		in.Spans = span.NewRecorder(*p.Spans, p.Seed)
	}
	if p.Obs.On() {
		buildTelemetry(in, p.Obs)
	}
	if in.Trace == nil && in.Spans == nil && in.Telemetry == nil {
		return
	}
	// Span labels name the host "h" and any other node by its ID; they
	// are built only when spans are armed.
	label := func(parts ...string) string {
		if in.Spans == nil {
			return ""
		}
		return strings.Join(parts, "")
	}
	name := func(n packet.NodeID) string {
		if n == packet.HostNode {
			return "h"
		}
		return strconv.Itoa(int(n))
	}
	// land observes direction d, which delivers to node's input port.
	land := func(d *link.Direction, op trace.Op, node packet.NodeID, port int, loc string) {
		d.SetObserver(&observer{in: in, op: op, node: node, port: int8(port), serdes: d.SerDes(), label: loc})
	}
	in.Port.SetObserver(&observer{in: in, node: packet.HostNode, port: -1})
	g := in.Graph
	for _, n := range g.Nodes {
		deg := g.Degree(n.ID)
		for port := 0; port < deg; port++ {
			_, d := in.portDirs(n.ID, port)
			edge := label(name(g.Neighbor(n.ID, port)), ">", name(n.ID))
			if n.Kind == topology.Host {
				land(d, trace.Complete, n.ID, -1, edge)
			} else {
				land(d, trace.Arrive, n.ID, port, edge)
			}
		}
		r := in.routers[n.ID]
		if r == nil {
			continue
		}
		ro := &observer{in: in, label: label("r", name(n.ID))}
		if t := in.Telemetry; t != nil {
			ro.grants = t.grants[n.ID]
		}
		r.SetObserver(ro)
		for qi, q := range in.quadrants[n.ID] {
			c, i := name(n.ID), strconv.Itoa(qi)
			q.SetObserver(&observer{in: in, label: label("v", c, ".q", i)})
			land(r.Output(deg+qi), trace.MemStart, n.ID, qi, label(c, ">q", i))
			land(q.Output(), trace.MemDone, n.ID, deg+qi, label("q", i, ">", c))
		}
	}
}

// NodeReport summarizes one node's routers and vaults after a run; the
// per-port service-share numbers make the paper's "parking lot"
// unfairness directly visible.
type NodeReport struct {
	Node      packet.NodeID
	Kind      topology.NodeKind
	Forwarded uint64
	Contended uint64
	// InputWait is total input-buffer residency across the node's ports
	// — the queuing metric of the paper's §3.2 router analysis.
	InputWait sim.Time
	// PortWait is the per-port mean input residency (external ports
	// first, then local vault ports).
	PortWait []sim.Time
	// Vault aggregates the node's quadrant controllers (zero for
	// interface chips).
	Vault vault.Stats
	Banks mem.BankStats
}

// Report builds per-node reports in node-ID order, one per router.
func (in *Instance) Report() []NodeReport {
	out := make([]NodeReport, 0, len(in.routers))
	for id, r := range in.routers {
		if r == nil {
			continue
		}
		nr := NodeReport{
			Node:      packet.NodeID(id),
			Kind:      in.Graph.Nodes[id].Kind,
			Forwarded: r.Forwarded[packet.VCRequest] + r.Forwarded[packet.VCResponse],
			Contended: r.Contended,
			InputWait: r.TotalInputWait(),
		}
		for i := 0; i < r.NumPorts(); i++ {
			nr.PortWait = append(nr.PortWait, r.InputBuffer(i).MeanWait())
		}
		for _, q := range in.quadrants[id] {
			s := q.Stats()
			nr.Vault.Reads += s.Reads
			nr.Vault.Writes += s.Writes
			nr.Vault.WrongQuad += s.WrongQuad
			nr.Vault.QueueWait += s.QueueWait
			nr.Vault.ServiceTime += s.ServiceTime
			bs := q.BankStats()
			nr.Banks.Reads += bs.Reads
			nr.Banks.Writes += bs.Writes
			nr.Banks.RowHits += bs.RowHits
			nr.Banks.RowMisses += bs.RowMisses
			nr.Banks.RowConflicts += bs.RowConflicts
			nr.Banks.Refreshes += bs.Refreshes
			nr.Banks.BusyTime += bs.BusyTime
		}
		out = append(out, nr)
	}
	return out
}

// RowHitRate reports the fraction of bank accesses that hit an open row.
func (nr *NodeReport) RowHitRate() float64 {
	total := nr.Banks.RowHits + nr.Banks.RowMisses + nr.Banks.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(nr.Banks.RowHits) / float64(total)
}

// WedgeDump renders the queue and credit state of the whole network —
// the diagnostic the watchdog attaches when it declares the simulation
// wedged. One line per node: each output port's queue occupancy,
// remaining transmit credits per VC, retry-buffer depth, and whether the
// port's link is dead, plus the router's input-buffer occupancies and
// reroute backlog. The host's in-flight window count leads the dump.
func (in *Instance) WedgeDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wedge dump at %v: %d in flight, %d completed\n",
		in.Eng.Now(), in.Port.Inflight(), in.Collector.Completed())
	for id, r := range in.routers {
		if r == nil {
			continue
		}
		fmt.Fprintf(&b, "node %d (%v):", id, in.Graph.Nodes[id].Kind)
		if bl := r.RerouteBacklog(); bl > 0 {
			fmt.Fprintf(&b, " reroute-backlog=%d", bl)
		}
		for i := 0; i < r.NumPorts(); i++ {
			out := r.Output(i)
			fmt.Fprintf(&b, " p%d[in=%d/%d", i,
				r.InputBuffer(i).Len(packet.VCRequest),
				r.InputBuffer(i).Len(packet.VCResponse))
			fmt.Fprintf(&b, " outq=%d/%d cred=%d/%d",
				out.QueueLen(packet.VCRequest), out.QueueLen(packet.VCResponse),
				out.Credits(packet.VCRequest), out.Credits(packet.VCResponse))
			if rl := out.RetryLen(); rl > 0 {
				fmt.Fprintf(&b, " retry=%d", rl)
			}
			if out.Dead() {
				b.WriteString(" DEAD")
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ReportText renders the per-node table for CLI consumption.
func (in *Instance) ReportText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-6s %-6s %9s %9s %11s %8s %8s %7s\n",
		"node", "kind", "tech", "forwarded", "contended", "input-wait",
		"reads", "writes", "rowhit")
	for _, nr := range in.Report() {
		kind, tech := "cube", in.Graph.Nodes[nr.Node].Tech.String()
		if nr.Kind == topology.Iface {
			kind, tech = "iface", "-"
		}
		fmt.Fprintf(&b, "%-5d %-6s %-6s %9d %9d %11v %8d %8d %6.1f%%\n",
			nr.Node, kind, tech, nr.Forwarded, nr.Contended, nr.InputWait,
			nr.Vault.Reads, nr.Vault.Writes, nr.RowHitRate()*100)
	}
	return b.String()
}
