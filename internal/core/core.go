// Package core composes the memnet subsystems — topology graph, links,
// routers, vault quadrants, host port, workload generator, statistics and
// energy meters — into one runnable simulated memory network, and is
// where the paper's proposals (distance-based arbitration, the skip-list
// read/write differentiated routing, MetaCube clustering, and DRAM:NVM
// mixing) come together.
//
// A simulation instance models a single host memory port and its MN.
// This is exact, not an approximation: the paper's systems interleave the
// physical address space across ports so each port's network is disjoint
// and identically loaded (§2.3); whole-system numbers are per-port
// numbers, and port-count sweeps rescale the per-port cube count and
// injection rate.
package core

import (
	"fmt"
	"slices"
	"sort"

	"memnet/internal/addr"
	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/energy"
	"memnet/internal/fault"
	"memnet/internal/host"
	"memnet/internal/link"
	"memnet/internal/migrate"
	"memnet/internal/obs"
	"memnet/internal/packet"
	"memnet/internal/router"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/trace"
	"memnet/internal/vault"
	"memnet/internal/workload"
)

// Tuning holds the microarchitectural constants that are not part of the
// paper's Table 2 but that the model needs; defaults reproduce the
// paper's qualitative behavior and are exercised by the ablation benches.
type Tuning struct {
	// VaultQueueDepth is the per-quadrant request queue (packets).
	VaultQueueDepth int
	// VaultMaxInflight bounds concurrent bank accesses per quadrant.
	VaultMaxInflight int
	// InternalBandwidthX multiplies the external link bandwidth for the
	// router<->vault connections on the logic die.
	InternalBandwidthX int
	// SwitchBandwidthBps is a memory cube's centralized-switch internal
	// bandwidth. Heavily transited cubes (every cube of a chain, the
	// root of any topology) contend here before saturating any one
	// link; this is where response priority backs requests up (§3.2).
	SwitchBandwidthBps int64
	// IfaceSwitchBandwidthBps is the same for a MetaCube interface
	// chip, whose interposer crossbar is high-radix and wider (§4.3).
	IfaceSwitchBandwidthBps int64
	// InterposerBandwidthX multiplies the external link bandwidth for
	// MetaCube interposer traces; InterposerSerDes replaces the 2 ns
	// SerDes cost on those links (wide parallel wires need no SerDes).
	InterposerBandwidthX int
	InterposerSerDes     sim.Time
	// ShortcutHi/Lo are the write-burst hysteresis watermarks (§5.3).
	ShortcutHi, ShortcutLo float64
	ShortcutWindow         int
	// NVMMaxInflight bounds concurrent array operations per NVM
	// quadrant; PCM current-delivery limits pipeline far fewer
	// concurrent array operations than DRAM.
	NVMMaxInflight int
	// MetaCubeGroup is the number of cubes per MetaCube package
	// (default 4; bounded by interposer size, §4.3).
	MetaCubeGroup int
	// WavefrontSize is the host's GPU-style group-retirement size.
	WavefrontSize int
	// WriteDemotion is the augmented arbitration's write weight divisor.
	WriteDemotion int64
	// NoVCPriority disables response-over-request link priority
	// (ablation).
	NoVCPriority bool
}

// DefaultTuning returns the standard tuning.
func DefaultTuning() Tuning {
	return Tuning{
		VaultQueueDepth:         8,
		VaultMaxInflight:        16,
		NVMMaxInflight:          8,
		InternalBandwidthX:      2,
		SwitchBandwidthBps:      300e9,
		IfaceSwitchBandwidthBps: 960e9,
		InterposerBandwidthX:    2,
		InterposerSerDes:        500 * sim.Picosecond,
		ShortcutHi:              0.65,
		ShortcutLo:              0.45,
		ShortcutWindow:          64,
		MetaCubeGroup:           4,
		WavefrontSize:           16,
		WriteDemotion:           2,
	}
}

// Params fully specifies one simulation run.
type Params struct {
	Sys  config.System
	Topo topology.Kind
	Arb  arb.Kind
	// Workload drives the port; its MeanGap is automatically rescaled
	// for port counts other than 8 (fewer ports concentrate the same
	// system load onto each port).
	Workload workload.Spec
	// Transactions is the trace length to complete.
	Transactions uint64
	// Seed makes runs reproducible; runs differing only in Seed are
	// statistically independent.
	Seed uint64
	// KeepSamples retains latency samples for percentile queries.
	KeepSamples bool
	// Replay, when non-empty, drives the port with the given recorded
	// transaction trace (cycled if shorter than Transactions) instead of
	// the synthetic workload generator; Workload then only labels the
	// run. Trace gaps are used verbatim (no port-count rescaling).
	Replay []workload.Tx
	// Record wraps the generator in a recorder; the trace is available
	// from Instance.Recorder after the run.
	Record bool
	// TraceDepth, when positive, records the last TraceDepth packet
	// lifecycle events into Instance.Trace.
	TraceDepth int
	// Migration, when non-nil, enables the epoch-based hot-block
	// migration manager (the heterogeneous-memory management layer of
	// §2.4) with the given policy.
	Migration *migrate.Config
	// FailLinks lists edge indices (into the built topology's Edges) to
	// remove before the run: a RAS experiment. Each index must exist and
	// appear once. Building fails if the cut would disconnect the
	// network (chains and trees have no redundancy; rings, skip lists,
	// and meshes reroute). The run, its chaos schedules (Graph) and its
	// scenario export all see the graph without these edges.
	FailLinks []int
	// Fault, when non-nil and enabled, arms the runtime fault-injection
	// and resilience layer: link bit errors with retry, scheduled lane
	// failures, link kills, cube kills with route-around and address
	// re-homing, and the progress watchdog. A nil or disabled Fault
	// leaves the simulation bit-identical to a build without it.
	Fault *fault.Config
	// Obs, when non-nil and enabled, arms the telemetry layer
	// (internal/obs): metrics registry, interval sampler, and the
	// exporters behind Instance.Telemetry and Instance.Manifest.
	// Telemetry never changes what the simulation does: Results are
	// bit-identical with Obs enabled and disabled.
	Obs *obs.Config
	// Spans, when non-nil, arms causal span tracing (internal/span):
	// one latency-decomposition span tree per sampled transaction,
	// collected by the run's packet observers at existing event
	// boundaries.
	// Like Obs, it never changes what the simulation does: Results are
	// bit-identical with Spans enabled and disabled.
	Spans *span.Config
	// Scenario, when non-nil, declares the component graph: Graph
	// builds it with topology.BuildScenario instead of the compiled-in
	// Topo, and Build applies the spec's per-link and per-router
	// overrides and skips the capacity equation (the cube population is
	// whatever the spec declares). Topo is derived from the spec (its
	// built-in kind label, or topology.Scenario) and any caller-set
	// value is ignored. The spec's workload and fault blocks
	// are NOT applied here — callers resolve them into Workload and
	// Fault (see memnet.Config and ScenarioFault) so precedence stays
	// explicit.
	Scenario *scenario.Spec
	Tuning   Tuning
}

// Label renders the configuration the way the paper labels its bars,
// e.g. "100%-T", "50%-SL (NVM-L)", "0%-MC". A free-form scenario run
// is labeled by its scenario name; a scenario that declares a built-in
// topology kind labels exactly like the compiled-in configuration.
func (p *Params) Label() string {
	if p.Topo == topology.Scenario {
		if p.Scenario != nil {
			return p.Scenario.Name
		}
		return "scenario"
	}
	pct := int(p.Sys.DRAMFraction*100 + 0.5)
	base := fmt.Sprintf("%d%%-%s", pct, p.Topo.Letter())
	if pct > 0 && pct < 100 {
		return fmt.Sprintf("%s (%s)", base, p.Sys.Placement)
	}
	return base
}

// Instance is a built, runnable simulation.
type Instance struct {
	Params    Params
	Eng       *sim.Engine
	Graph     *topology.Graph
	Mapper    *addr.Mapper
	Port      *host.Port
	Collector *stats.Collector
	Meter     *energy.Meter

	// Migrator is non-nil when Params.Migration enabled management.
	Migrator *migrate.Manager
	// Recorder is non-nil when Params.Record captured the trace.
	Recorder *workload.Recorder
	// Trace is non-nil when Params.TraceDepth enabled event tracing.
	Trace *trace.Log

	// Watchdog is non-nil when Params.Fault armed the progress watchdog.
	Watchdog *sim.Watchdog

	// Telemetry is non-nil when Params.Obs armed the metrics layer.
	Telemetry *Telemetry

	// Spans is non-nil when Params.Spans armed causal span tracing; its
	// completed spans are exported with Instance.WriteSpans.
	Spans *span.Recorder

	routers   map[packet.NodeID]*router.Router
	quadrants map[packet.NodeID][]*vault.Quadrant

	// live is the routing graph the route closures consult; it starts as
	// Graph and is swapped for a degraded (Disable) graph when a
	// scheduled fault recomputes routes. Port indices are preserved
	// across swaps, so the wired network never changes shape.
	live *topology.Graph
	// dirs holds the two directions of every external edge, indexed like
	// Graph.Edges, for scheduled faults to down-bind or kill.
	dirs []edgeDirs

	// Fault plan, precomputed and validated at Build time: one entry per
	// scheduled event; planGraphs[i] is the routing graph after event i
	// (nil when routing is unchanged), planSpares[i] the re-home target
	// of a cube kill.
	faultCfg   fault.Config
	planEvents []fault.Event
	planGraphs []*topology.Graph
	planSpares []packet.NodeID
	// rehome maps a dead cube to the surviving cube now serving its
	// address range (always fully collapsed: values are never dead).
	rehome map[packet.NodeID]packet.NodeID
	fc     stats.FaultCounters
}

// edgeDirs is the direction pair of one undirected edge.
type edgeDirs struct{ ab, ba *link.Direction } // A->B, B->A

// TechOrder returns the per-position cube technologies implied by the
// system's DRAM fraction and placement. Position 0 is nearest the host.
func TechOrder(sys *config.System) ([]config.MemTech, error) {
	nd, nn, err := sys.CubesPerPort()
	if err != nil {
		return nil, err
	}
	techs := make([]config.MemTech, 0, nd+nn)
	if sys.Placement == config.NVMFirst {
		for i := 0; i < nn; i++ {
			techs = append(techs, config.NVM)
		}
		for i := 0; i < nd; i++ {
			techs = append(techs, config.DRAM)
		}
	} else {
		for i := 0; i < nd; i++ {
			techs = append(techs, config.DRAM)
		}
		for i := 0; i < nn; i++ {
			techs = append(techs, config.NVM)
		}
	}
	return techs, nil
}

// validateSys checks the system configuration. Scenario runs skip the
// capacity equation: their cube population is whatever the spec
// declares, not a solution of DRAMFraction against TotalCapacity.
func (p *Params) validateSys() error {
	if p.Scenario != nil {
		return p.Sys.ValidateBase()
	}
	return p.Sys.Validate()
}

// Graph returns the routing graph a run of p simulates. It is the one
// path from Params to a graph: Build wires it, and chaos schedules and
// scenario exports address its edges, so every consumer of a
// configuration sees the same edge indices.
func Graph(p Params) (*topology.Graph, error) {
	g, _, err := p.graph()
	return g, err
}

// graph builds the run's topology. A scenario run gets the declared
// graph from a normalized clone of p.Scenario, which it also returns
// for its per-link and per-router overrides, and p.Topo becomes the
// spec's kind. Any other run gets the compiled-in p.Topo over
// TechOrder, with FailLinks removed: a build-time RAS cut, where a
// runtime link kill is a fault.Config event against the intact graph.
func (p *Params) graph() (*topology.Graph, *scenario.Spec, error) {
	group := p.Tuning.MetaCubeGroup
	if group < 0 {
		return nil, nil, fmt.Errorf("core: Tuning.MetaCubeGroup: negative group %d", group)
	}
	if p.Scenario != nil {
		// Removing edges would shift the indices the spec's per-link
		// overrides and fault events address.
		if len(p.FailLinks) > 0 {
			return nil, nil, fmt.Errorf("core: FailLinks cannot combine with Scenario; drop the links from the scenario instead")
		}
		// Clone before normalizing: the caller's spec may be shared
		// across concurrently building ports (RunMachine).
		scen := p.Scenario.Clone()
		if err := scen.Normalize(); err != nil {
			return nil, nil, err
		}
		kind, err := topology.ScenarioKind(scen)
		if err != nil {
			return nil, nil, err
		}
		p.Topo = kind
		g, err := topology.BuildScenario(scen)
		if err != nil {
			return nil, nil, err
		}
		return g, scen, nil
	}
	techs, err := TechOrder(&p.Sys)
	if err != nil {
		return nil, nil, err
	}
	if group == 0 {
		group = DefaultTuning().MetaCubeGroup
	}
	g, err := topology.Build(p.Topo, techs, topology.WithMetaCubeGroup(group))
	if err != nil || len(p.FailLinks) == 0 {
		return g, nil, err
	}
	for i, ei := range p.FailLinks {
		if ei < 0 || ei >= len(g.Edges) {
			return nil, nil, fmt.Errorf("core: FailLinks[%d]: no edge %d (%v has %d edges)", i, ei, p.Topo, len(g.Edges))
		}
		if slices.Contains(p.FailLinks[:i], ei) {
			return nil, nil, fmt.Errorf("core: FailLinks[%d]: duplicate edge %d", i, ei)
		}
	}
	g, err = g.RemoveEdge(p.FailLinks...)
	if err != nil {
		return nil, nil, fmt.Errorf("core: FailLinks: %w", err)
	}
	return g, nil, nil
}

// Build constructs a simulation instance from params on a fresh engine.
func Build(p Params) (*Instance, error) {
	if err := p.validateSys(); err != nil {
		return nil, err
	}
	if p.Transactions == 0 {
		return nil, fmt.Errorf("core: zero transactions")
	}
	if p.Tuning == (Tuning{}) {
		p.Tuning = DefaultTuning()
	}
	g, scen, err := p.graph()
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()

	// Capacity-proportional interleave slots in cube position order.
	var slots []addr.CubeSlot
	for _, n := range g.Nodes {
		if n.Kind != topology.Cube {
			continue
		}
		units := 1
		if n.Tech == config.NVM {
			units = int(p.Sys.NVMCubeCapacity / p.Sys.DRAMCubeCapacity)
			if units < 1 {
				units = 1
			}
		}
		slots = append(slots, addr.CubeSlot{Node: n.ID, Tech: n.Tech, Units: units})
	}
	mapper, err := addr.NewMapper(&p.Sys, slots)
	if err != nil {
		return nil, err
	}

	meter := energy.NewMeter(p.Sys.Energy)
	collector := stats.NewCollector(p.KeepSamples)

	inst := &Instance{
		Params:    p,
		Eng:       eng,
		Graph:     g,
		Mapper:    mapper,
		Collector: collector,
		Meter:     meter,
		routers:   make(map[packet.NodeID]*router.Router),
		quadrants: make(map[packet.NodeID][]*vault.Quadrant),
		live:      g,
		rehome:    make(map[packet.NodeID]packet.NodeID),
	}

	// Precompute and validate the fault plan: every scheduled fault's
	// degraded routing graph and re-home target is built here, so an
	// unsurvivable scenario (a chain cut, a Full cube kill with no
	// redundancy, a kill leaving no memory) fails at Build, not mid-run.
	faultOn := p.Fault.Enabled()
	if faultOn {
		inst.faultCfg = p.Fault.WithDefaults()
		if err := inst.faultCfg.Validate(); err != nil {
			return nil, err
		}
		if err := inst.planFaults(); err != nil {
			return nil, err
		}
	}

	// Workload generator: per-port load scales inversely with the port
	// count (the system-wide request rate is fixed; §6.1). The host's
	// MLP window scales the same way — the processor's total outstanding
	// capacity is a system property divided across its ports.
	spec := p.Workload
	spec.MeanGap = spec.MeanGap * sim.Time(p.Sys.Ports) / 8
	if spec.Window > 0 {
		spec.Window = spec.Window * 8 / p.Sys.Ports
	}
	var gen workload.Generator
	if len(p.Replay) > 0 {
		gen = workload.NewReplay(p.Replay)
	} else {
		gen = workload.New(spec, p.Sys.PortCapacity(), p.Seed|1)
	}
	if p.Record {
		rec := workload.NewRecorder(gen)
		gen = rec
		inst.Recorder = rec
	}

	var migrator *migrate.Manager
	if p.Migration != nil {
		mc := *p.Migration
		mc.BlockBytes = p.Sys.InterleaveBytes
		migrator = migrate.New(eng, mc, func(phys uint64) config.MemTech {
			return mapper.Tech(mapper.CubeOf(phys))
		}, meter)
		inst.Migrator = migrator
	}

	window := p.Sys.MaxOutstanding * 8 / p.Sys.Ports
	if window < 1 {
		window = 1
	}
	if spec.Window > 0 && spec.Window < window {
		window = spec.Window
	}
	hcfg := host.Config{
		MaxOutstanding: window,
		HostLatency:    p.Sys.HostLatency,
		Target:         p.Transactions,
		ShortcutEnable: p.Arb == arb.DistanceAugmented,
		ShortcutHi:     p.Tuning.ShortcutHi,
		ShortcutLo:     p.Tuning.ShortcutLo,
		ShortcutWindow: p.Tuning.ShortcutWindow,
		WavefrontSize:  p.Tuning.WavefrontSize,
	}
	if migrator != nil {
		hcfg.Observe, hcfg.ReadyAt, hcfg.Translate = migrator.Observe, migrator.ReadyAt, migrator.Translate
	}
	hostPort := host.New(eng, hcfg, gen, host.Wiring{
		DestOf: func(a uint64) packet.NodeID {
			n := mapper.CubeOf(a)
			if spare, ok := inst.rehome[n]; ok {
				inst.fc.Rehomed++
				return spare
			}
			return n
		},
		DistOf: func(dst packet.NodeID, class topology.PathClass) int {
			return inst.live.Dist(class, packet.HostNode, dst)
		},
	}, collector)
	inst.Port = hostPort

	// Arbitration policy factory: one stateful policy per router. A
	// scenario can pin an individual router's policy and write
	// demotion; everything else inherits the run-wide settings.
	biasHops := techBiasHops(&p.Sys)
	newPolicy := func(kind arb.Kind, demotion int64) arb.Policy {
		cfg := arb.Config{WriteDemotion: demotion}
		if kind == arb.DistanceAugmented {
			cfg.Bias = func(n packet.NodeID) int64 {
				if mapper.Tech(n) == config.NVM {
					return biasHops
				}
				return 0
			}
		}
		return arb.New(kind, cfg)
	}

	// Routers for every non-host node.
	for _, n := range g.Nodes {
		if n.Kind == topology.Host {
			continue
		}
		if n.Kind == topology.Cube && g.Degree(n.ID)+p.Sys.Quadrants > topology.MaxPorts {
			return nil, fmt.Errorf("core: cube %d: %d links plus %d quadrants exceed %d router ports",
				n.ID, g.Degree(n.ID), p.Sys.Quadrants, topology.MaxPorts)
		}
		aKind, demotion, xbar, err := routerSettings(&p, n, scen)
		if err != nil {
			return nil, err
		}
		inst.routers[n.ID] = router.New(eng, n.ID, newPolicy(aKind, demotion), xbar)
	}

	// Per-edge link direction pairs, attached in adjacency order so that
	// graph port indices equal router port indices.
	extLink := link.Config{
		BandwidthBps:  p.Sys.LinkBandwidthBps(),
		SerDesLatency: p.Sys.SerDesLatency,
		QueueDepth:    p.Sys.LinkBufferPackets,
		Credits:       p.Sys.LinkBufferPackets,
		NoVCPriority:  p.Tuning.NoVCPriority,
		CountHop:      true,
	}
	ipLink := extLink
	ipLink.BandwidthBps *= int64(p.Tuning.InterposerBandwidthX)
	ipLink.SerDesLatency = p.Tuning.InterposerSerDes

	dirs := make([]edgeDirs, len(g.Edges))
	for ei, e := range g.Edges {
		over := scen.LinkOf(ei)
		base := extLink
		if e.Interposer {
			base = ipLink
		}
		cfg := linkConfig(base, over)
		dirs[ei] = edgeDirs{
			ab: link.New(eng, cfg, meter),
			ba: link.New(eng, cfg, meter),
		}
		// Bit errors afflict package-to-package SerDes channels; the
		// wide parallel interposer traces inside a MetaCube are exempt.
		if faultOn && !e.Interposer {
			dirs[ei].ab.AttachFault(linkFault(inst.faultCfg.LinkFault(ei, 0), over))
			dirs[ei].ba.AttachFault(linkFault(inst.faultCfg.LinkFault(ei, 1), over))
		}
	}
	inst.dirs = dirs

	for _, n := range g.Nodes {
		if n.Kind == topology.Host {
			continue
		}
		r := inst.routers[n.ID]
		for port := 0; port < g.Degree(n.ID); port++ {
			e := g.EdgeAt(n.ID, port)
			var out, in *link.Direction
			ei := g.EdgeIndex(n.ID, port)
			if e.A == n.ID {
				out, in = dirs[ei].ab, dirs[ei].ba
			} else {
				out, in = dirs[ei].ba, dirs[ei].ab
			}
			buf := link.NewBuffer(in.BufferDepth(), in.ReturnCredit)
			idx := r.AttachPort(buf, out)
			in.SetDeliver(r.Deliver(idx))
		}
	}

	// Host wiring: the host's single link.
	hostEdgeIdx := g.EdgeIndex(packet.HostNode, 0)
	he := g.Edges[hostEdgeIdx]
	var hostOut, hostIn *link.Direction
	if he.A == packet.HostNode {
		hostOut, hostIn = dirs[hostEdgeIdx].ab, dirs[hostEdgeIdx].ba
	} else {
		hostOut, hostIn = dirs[hostEdgeIdx].ba, dirs[hostEdgeIdx].ab
	}
	hostPort.Attach(hostOut)
	hostIn.SetDeliver(func(pk *packet.Packet) {
		vc := packet.VCOf(pk.Kind)
		hostPort.Receive(pk)
		hostIn.ReturnCredit(vc)
	})

	// Vault quadrants behind every cube.
	intLink := link.Config{
		BandwidthBps:  p.Sys.LinkBandwidthBps() * int64(p.Tuning.InternalBandwidthX),
		SerDesLatency: 0,
		QueueDepth:    p.Tuning.VaultQueueDepth,
		Credits:       p.Tuning.VaultQueueDepth,
		CountHop:      false,
	}
	for _, n := range g.Nodes {
		if n.Kind != topology.Cube {
			continue
		}
		r := inst.routers[n.ID]
		extDeg := g.Degree(n.ID)
		node := n.ID
		retDist := func(pk *packet.Packet) int {
			// Responses travel the short (shortest-path) table.
			return inst.live.Dist(topology.PathShort, node, pk.Src)
		}
		inflight := p.Tuning.VaultMaxInflight
		if n.Tech == config.NVM && p.Tuning.NVMMaxInflight > 0 {
			inflight = p.Tuning.NVMMaxInflight
		}
		quads := make([]*vault.Quadrant, p.Sys.Quadrants)
		for qi := 0; qi < p.Sys.Quadrants; qi++ {
			toQuad := link.New(eng, intLink, meter)
			fromQuad := link.New(eng, intLink, meter)
			q := vault.New(eng, vault.Config{
				Tech:        n.Tech,
				Timing:      p.Sys.Timing(n.Tech),
				Index:       qi,
				ExtPorts:    extDeg,
				Penalty:     p.Sys.WrongQuadrantPenalty,
				Banks:       p.Sys.BanksPerQuadrant(),
				MaxInflight: inflight,
				BankMap: func(a uint64) (int, int64) {
					_, _, bank, row := mapper.Decompose(a)
					return bank, row
				},
				ReturnDist: retDist,
				Meter:      meter,
			})
			quadIn := link.NewBuffer(p.Tuning.VaultQueueDepth, toQuad.ReturnCredit)
			q.Attach(quadIn, fromQuad)
			toQuad.SetDeliver(q.Deliver())

			routerIn := link.NewBuffer(p.Tuning.VaultQueueDepth, fromQuad.ReturnCredit)
			idx := r.AttachPort(routerIn, toQuad)
			fromQuad.SetDeliver(r.Deliver(idx))
			quads[qi] = q
		}
		inst.quadrants[n.ID] = quads
	}

	// Routing functions, closing over the host's shortcut state.
	for _, n := range g.Nodes {
		if n.Kind == topology.Host {
			continue
		}
		node := n.ID
		extDeg := g.Degree(node)
		isCube := n.Kind == topology.Cube
		inst.routers[node].SetRoute(func(pk *packet.Packet) int {
			if isCube && pk.Dst == node {
				if spare, ok := inst.rehome[node]; ok && pk.Kind.IsRequest() {
					// This cube's memory died after the packet departed:
					// bounce it to the spare now serving the address range.
					pk.Dst = spare
					pk.Distance = inst.live.Dist(topology.PathShort, packet.HostNode, spare)
					inst.fc.Bounced++
				} else {
					_, quad, _, _ := mapper.Decompose(pk.Addr)
					return extDeg + quad
				}
			}
			port := inst.live.NextPort(topology.PathClass(pk.Class), node, pk.Dst)
			if port < 0 {
				panic(fmt.Sprintf("core: no route from %d to %d", node, pk.Dst))
			}
			return port
		})
	}

	// Arm the resilience machinery last so a disabled Fault config adds
	// zero events and the golden determinism fingerprints stay intact.
	if faultOn {
		for i, ev := range inst.planEvents {
			i := i
			if ev.Kind == fault.EvRepairLink {
				// The retraining window opens at the repair instant; the
				// route-back and credit re-arm fire at ev.At when it
				// closes (applyFault's EvRepairLink arm).
				edge := ev.Edge
				eng.At(ev.Start, func() {
					inst.dirs[edge].ab.BeginRetrain()
					inst.dirs[edge].ba.BeginRetrain()
				})
			}
			eng.At(ev.At, func() { inst.applyFault(i) })
		}
		inst.Watchdog = sim.NewWatchdog(eng,
			inst.faultCfg.WatchdogInterval, inst.faultCfg.WatchdogStale,
			collector.Completed,
			func() bool { return hostPort.Inflight() > 0 })
		inst.Watchdog.Arm()
	}

	inst.observe()

	// Prime the injection process.
	eng.Schedule(0, hostPort.Kick)
	return inst, nil
}

// planFaults validates the scheduled faults and repairs against the
// built topology and precomputes, per event, the routing graph in
// force after it and (for cube kills) the re-home spare. Walks the
// schedule in time order carrying the cumulative dead set, exactly as
// applyFault will at runtime — a link repair's slot in the walk is its
// effective link-up instant (retraining end), so the cumulative order
// here equals the order routing actually changes mid-run.
func (in *Instance) planFaults() error {
	evs, err := in.faultCfg.Build()
	if err != nil {
		return err
	}
	in.planEvents = evs
	in.planGraphs = make([]*topology.Graph, len(evs))
	in.planSpares = make([]packet.NodeID, len(evs))

	cur := in.Graph
	deadCubes := make(map[packet.NodeID]bool)
	fullDead := make(map[packet.NodeID]bool)
	for i, ev := range evs {
		switch ev.Kind {
		case fault.EvLaneFail, fault.EvLaneRepair:
			if ev.Edge >= len(in.Graph.Edges) {
				return fmt.Errorf("core: lane fault on nonexistent edge %d", ev.Edge)
			}
			// Bandwidth changes; routing is untouched.
		case fault.EvKillLink:
			if ev.Edge >= len(in.Graph.Edges) {
				return fmt.Errorf("core: kill of nonexistent edge %d", ev.Edge)
			}
			ng, err := cur.Disable([]int{ev.Edge}, nil)
			if err != nil {
				e := in.Graph.Edges[ev.Edge]
				return fmt.Errorf("core: killing link %d (%d-%d) at %v: %w",
					ev.Edge, e.A, e.B, ev.At, err)
			}
			cur, in.planGraphs[i] = ng, ng
		case fault.EvRepairLink:
			if ev.Edge >= len(in.Graph.Edges) {
				return fmt.Errorf("core: repair of nonexistent edge %d", ev.Edge)
			}
			ng, err := cur.Enable([]int{ev.Edge}, nil)
			if err != nil {
				return fmt.Errorf("core: repairing link %d at %v: %w", ev.Edge, ev.At, err)
			}
			cur, in.planGraphs[i] = ng, ng
		case fault.EvKillCube:
			if int(ev.Node) >= len(in.Graph.Nodes) ||
				in.Graph.Nodes[ev.Node].Kind != topology.Cube {
				return fmt.Errorf("core: kill target %d is not a memory cube", ev.Node)
			}
			if deadCubes[ev.Node] {
				return fmt.Errorf("core: cube %d killed twice", ev.Node)
			}
			if ev.Full {
				// The whole package dies: no transit either. Only
				// redundant topologies survive this; Disable rejects the
				// rest.
				ng, err := cur.Disable(nil, []packet.NodeID{ev.Node})
				if err != nil {
					return fmt.Errorf("core: full kill of cube %d at %v: %w",
						ev.Node, ev.At, err)
				}
				cur, in.planGraphs[i] = ng, ng
				fullDead[ev.Node] = true
			}
			deadCubes[ev.Node] = true
			spare, err := nearestSurvivor(cur, ev.Node, deadCubes)
			if err != nil {
				return fmt.Errorf("core: killing cube %d at %v: %w", ev.Node, ev.At, err)
			}
			in.planSpares[i] = spare
		case fault.EvRepairCube:
			if !deadCubes[ev.Node] {
				return fmt.Errorf("core: repair of cube %d at %v, which is not dead", ev.Node, ev.At)
			}
			if fullDead[ev.Node] {
				ng, err := cur.Enable(nil, []packet.NodeID{ev.Node})
				if err != nil {
					return fmt.Errorf("core: repairing cube %d at %v: %w", ev.Node, ev.At, err)
				}
				cur, in.planGraphs[i] = ng, ng
				delete(fullDead, ev.Node)
			}
			// The cube is a kill candidate and a re-home target again;
			// victims re-homed elsewhere keep their existing spares
			// (repair restores only this cube's own address range).
			delete(deadCubes, ev.Node)
		}
	}
	return nil
}

// nearestSurvivor picks the deterministic re-home target for a dead
// cube: the surviving cube nearest to it on the degraded graph, ties
// broken toward the lowest node ID.
func nearestSurvivor(g *topology.Graph, victim packet.NodeID, dead map[packet.NodeID]bool) (packet.NodeID, error) {
	best, bestDist := packet.NodeID(-1), -1
	for _, id := range g.CubeIDs() {
		if dead[id] {
			continue
		}
		d := g.Dist(topology.PathShort, victim, id)
		if d < 0 {
			continue
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = id, d
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no surviving cube to re-home onto")
	}
	return best, nil
}

// applyFault fires scheduled fault or repair i at its simulated time:
// swap in the precomputed route tables, kill, degrade, or restore the
// hardware, update the re-home map, and kick every router so stranded
// heads re-arbitrate under the new tables.
func (in *Instance) applyFault(i int) {
	ev := in.planEvents[i]
	switch ev.Kind {
	case fault.EvLaneFail:
		in.dirs[ev.Edge].ab.Downbind()
		in.dirs[ev.Edge].ba.Downbind()
		in.fc.LaneFails++
		return // no routing change, no kicks needed
	case fault.EvLaneRepair:
		in.dirs[ev.Edge].ab.Rebind()
		in.dirs[ev.Edge].ba.Rebind()
		in.fc.LaneRepairs++
		return // bandwidth-only, like the flap down
	case fault.EvRepairLink:
		// Routes swap back first, so the retrained directions' space
		// callbacks and the kicks below route onto the healed edge.
		in.live = in.planGraphs[i]
		in.dirs[ev.Edge].ab.CompleteRetrain()
		in.dirs[ev.Edge].ba.CompleteRetrain()
		in.fc.LinksRepaired++
	case fault.EvRepairCube:
		if g := in.planGraphs[i]; g != nil {
			in.live = g
		}
		// New injections target the repaired cube again; packets
		// already bounced to the spare complete there.
		delete(in.rehome, ev.Node)
		in.fc.CubesRepaired++
	case fault.EvKillLink:
		in.live = in.planGraphs[i]
		e := in.Graph.Edges[ev.Edge]
		// Drain each direction's queued and retrying packets back into
		// the router at its sending end for re-routing. The host edge
		// cannot be killed (it always disconnects), so both ends route.
		ra, rb := in.routers[e.A], in.routers[e.B]
		in.dirs[ev.Edge].ab.Fail(func(p *packet.Packet) { ra.Reinject(p) })
		in.dirs[ev.Edge].ba.Fail(func(p *packet.Packet) { rb.Reinject(p) })
		in.fc.LinksKilled++
	case fault.EvKillCube:
		if g := in.planGraphs[i]; g != nil {
			in.live = g
		}
		spare := in.planSpares[i]
		// Collapse chains: victims previously re-homed onto this cube
		// move with it, so lookups stay single-level. Collect and sort
		// the victims before rewriting so the sweep order (and any
		// future side effects hung off it) stays deterministic.
		var victims []packet.NodeID
		for k, v := range in.rehome {
			if v != ev.Node {
				continue
			}
			victims = append(victims, k)
		}
		sort.Slice(victims, func(a, b int) bool { return victims[a] < victims[b] })
		for _, k := range victims {
			in.rehome[k] = spare
		}
		in.rehome[ev.Node] = spare
		in.fc.CubesKilled++
	}
	// Kick in deterministic node order: sweep scheduling order is part
	// of the reproducibility guarantee for faulty runs.
	for _, n := range in.Graph.Nodes {
		if r := in.routers[n.ID]; r != nil {
			r.Kick()
		}
	}
}

// techBiasHops converts the NVM-vs-DRAM read latency gap into
// hop-equivalents for the augmented arbitration weight, following the
// paper's empirical tuning "using both average network hop latency and
// average memory access latency for each cube technology type" (§5.3).
func techBiasHops(sys *config.System) int64 {
	dr := sys.DRAMTiming.TRCD + sys.DRAMTiming.TCL
	nv := sys.NVMTiming.TRCD + sys.NVMTiming.TCL
	hop := sys.SerDesLatency + sim.BitTime(packet.DataBits, sys.LinkBandwidthBps())
	if hop <= 0 {
		return 0
	}
	b := int64((nv - dr) / hop)
	if b < 0 {
		b = 0
	}
	return b
}

// routerSettings resolves a router's arbitration policy, write
// demotion, and crossbar bandwidth: the run-wide settings (the
// interface-chip crossbar for a MetaCube interface) under the node's
// scenario router override, if any.
func routerSettings(p *Params, n topology.Node, scen *scenario.Spec) (arb.Kind, int64, int64, error) {
	kind, demotion, xbar := p.Arb, p.Tuning.WriteDemotion, p.Tuning.SwitchBandwidthBps
	if n.Kind == topology.Iface {
		xbar = p.Tuning.IfaceSwitchBandwidthBps
	}
	rs, ok := scen.RouterOf(int(n.ID))
	if !ok {
		return kind, demotion, xbar, nil
	}
	if rs.Arb != "" {
		k, err := scenario.ParseArb(rs.Arb)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("core: routers.%d: %w", n.ID, err)
		}
		kind = k
	}
	if rs.WriteDemotion != nil {
		demotion = *rs.WriteDemotion
	}
	if rs.SwitchBandwidthBps != nil {
		xbar = *rs.SwitchBandwidthBps
	}
	return kind, demotion, xbar, nil
}

// linkConfig applies a scenario link's overrides to the edge's default
// (external or interposer) configuration. Both directions of the edge
// and the receive buffers at its ends use the result.
func linkConfig(cfg link.Config, l scenario.Link) link.Config {
	if l.BandwidthBps != nil {
		cfg.BandwidthBps = *l.BandwidthBps
	}
	if l.SerDesPs != nil {
		cfg.SerDesLatency = sim.Time(*l.SerDesPs) * sim.Picosecond
	}
	if l.BufferPackets != nil {
		cfg.QueueDepth = *l.BufferPackets
		cfg.Credits = *l.BufferPackets
	}
	if l.VCs != nil {
		cfg.NoVCPriority = *l.VCs == 1
	}
	return cfg
}

// linkFault applies a scenario link's retry-budget override to one
// direction's fault state (nil when the direction has none).
func linkFault(f *fault.LinkFault, l scenario.Link) *fault.LinkFault {
	if f != nil && l.MaxRetries != nil {
		f.MaxRetries = *l.MaxRetries
	}
	return f
}

// Results summarizes a completed run.
type Results struct {
	// Label is the paper-style configuration name (e.g. "50%-SL (NVM-L)").
	Label string
	// Workload names the traffic proxy that drove the run.
	Workload string
	// FinishTime is when the last transaction completed — the
	// execution-time metric behind every speedup in the paper.
	FinishTime sim.Time
	// MeanLatency is the average end-to-end transaction latency.
	MeanLatency sim.Time
	// Breakdown splits MeanLatency into to-memory / in-memory /
	// from-memory components (Fig. 5).
	Breakdown stats.Breakdown
	// Energy is the dynamic-energy account (Fig. 15).
	Energy energy.Breakdown
	// Transactions, Reads, and Writes count completed operations.
	Transactions uint64
	Reads        uint64
	Writes       uint64
	// MeanHops is the average response-path hop count (requests take a
	// symmetric path except for skip-list writes).
	MeanHops float64
	// Events is the number of simulation events executed (a cost and
	// determinism fingerprint).
	Events uint64
	// Fault aggregates the resilience layer's counters; all-zero when
	// fault injection is disabled.
	Fault stats.FaultCounters
}

// Run executes the instance until the host completes its trace. It
// returns an error if the simulation deadlocks (event queue drains
// early) or exceeds the safety horizon.
func (in *Instance) Run() (Results, error) {
	const horizon = 10 * sim.Second
	progressed := in.Eng.RunWhile(func() bool {
		if in.Eng.Now() > horizon {
			return false
		}
		if in.Watchdog != nil && in.Watchdog.Tripped() {
			return false
		}
		return !in.Port.Done()
	})
	if in.Watchdog != nil && in.Watchdog.Tripped() {
		return Results{}, fmt.Errorf(
			"core: watchdog: no forward progress over %v with packets in flight in %s/%s (%d/%d transactions at %v)\n%s",
			sim.Time(in.faultCfg.WatchdogStale)*in.faultCfg.WatchdogInterval,
			in.Params.Label(), in.Params.Workload.Name,
			in.Collector.Completed(), in.Params.Transactions, in.Eng.Now(),
			in.WedgeDump())
	}
	if !progressed && !in.Port.Done() {
		return Results{}, fmt.Errorf(
			"core: deadlock in %s/%s: %d/%d transactions after %v",
			in.Params.Label(), in.Params.Workload.Name,
			in.Collector.Completed(), in.Params.Transactions, in.Eng.Now())
	}
	if !in.Port.Done() {
		return Results{}, fmt.Errorf("core: horizon exceeded in %s/%s",
			in.Params.Label(), in.Params.Workload.Name)
	}
	return Results{
		Label:        in.Params.Label(),
		Workload:     in.Params.Workload.Name,
		FinishTime:   in.Collector.FinishTime(),
		MeanLatency:  in.Collector.MeanLatency(),
		Breakdown:    in.Collector.MeanBreakdown(),
		Energy:       in.Meter.Report(),
		Transactions: in.Collector.Completed(),
		Reads:        in.Collector.Reads(),
		Writes:       in.Collector.Writes(),
		MeanHops:     in.Collector.MeanHops(),
		Events:       in.Eng.Fired(),
		Fault:        in.FaultCounters(),
	}, nil
}

// FaultCounters aggregates the run's resilience counters from the core
// bookkeeping, every external link direction, and every router.
func (in *Instance) FaultCounters() stats.FaultCounters {
	fc := in.fc
	for _, d := range in.dirs {
		for _, dir := range [2]*link.Direction{d.ab, d.ba} {
			s := dir.Stats()
			fc.CRCErrors += s.CRCErrors
			fc.Retries += s.Retries
			fc.Dropped += s.Dropped
			fc.HealedBits += dir.HealedBits()
		}
	}
	for _, n := range in.Graph.Nodes {
		if r := in.routers[n.ID]; r != nil {
			fc.Rerouted += r.Rerouted
		}
	}
	return fc
}

// Simulate is the one-call convenience: build and run.
func Simulate(p Params) (Results, error) {
	in, err := Build(p)
	if err != nil {
		return Results{}, err
	}
	return in.Run()
}
