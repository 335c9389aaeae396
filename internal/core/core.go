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

	// Per-node tables, indexed by NodeID: routers is nil at the host,
	// quadrants is empty except at cubes, and rehome[n] is the surviving
	// cube now serving dead cube n's address range (always fully
	// collapsed: never a dead cube), or -1 while n is live.
	routers   []*router.Router
	quadrants [][]*vault.Quadrant
	rehome    []packet.NodeID

	// live is the routing graph the route closures consult; it starts as
	// Graph and is swapped for a degraded (Disable) graph when a
	// scheduled fault recomputes routes. Port indices are preserved
	// across swaps, so the wired network never changes shape.
	live *topology.Graph
	// dirs holds the two directions of every external edge, indexed like
	// Graph.Edges, for scheduled faults to down-bind or kill: side 0
	// runs A->B, side 1 B->A.
	dirs [][2]*link.Direction

	// faultCfg and plan are the fault schedule, precomputed and
	// validated at Build time.
	faultCfg fault.Config
	plan     []plannedFault
	fc       stats.FaultCounters
}

// plannedFault is one scheduled fault or repair with what Build
// precomputed for it: the routing graph in force after it (nil when
// routing is unchanged) and, for a cube kill, the re-home spare.
type plannedFault struct {
	fault.Event
	graph *topology.Graph
	spare packet.NodeID
}

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

// Build constructs a simulation instance from params on a fresh engine,
// one stage per layer. Constructors schedule nothing; the stages that
// do enqueue events in a fixed order, which every fixed-seed result
// depends on: the migration epoch (buildHost), each planned fault
// (armFaults), the watchdog tick, the telemetry sampler (observe), and
// last the host's first injection attempt.
func Build(p Params) (*Instance, error) {
	in, scen, err := newInstance(p)
	if err != nil {
		return nil, err
	}
	in.buildLinks(scen)
	in.buildHost()
	if err := in.armFaults(scen); err != nil {
		return nil, err
	}
	if err := in.buildNodes(scen); err != nil {
		return nil, err
	}
	in.observe()
	in.Eng.Schedule(0, in.Port.Kick)
	return in, nil
}

// newInstance validates p and builds what every later stage reads: the
// routing graph, the address mapper, the energy meter, the statistics
// collector and the empty per-node tables. It also returns the
// normalized scenario (nil for a compiled-in topology) whose per-link
// and per-router overrides the wiring stages apply.
func newInstance(p Params) (*Instance, *scenario.Spec, error) {
	if err := p.validateSys(); err != nil {
		return nil, nil, err
	}
	if p.Transactions == 0 {
		return nil, nil, fmt.Errorf("core: zero transactions")
	}
	if p.Tuning == (Tuning{}) {
		p.Tuning = DefaultTuning()
	}
	g, scen, err := p.graph()
	if err != nil {
		return nil, nil, err
	}

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
		return nil, nil, err
	}

	in := &Instance{
		Params:    p,
		Eng:       sim.NewEngine(),
		Graph:     g,
		Mapper:    mapper,
		Collector: stats.NewCollector(p.KeepSamples),
		Meter:     energy.NewMeter(p.Sys.Energy),
		routers:   make([]*router.Router, len(g.Nodes)),
		quadrants: make([][]*vault.Quadrant, len(g.Nodes)),
		rehome:    make([]packet.NodeID, len(g.Nodes)),
		live:      g,
	}
	for i := range in.rehome {
		in.rehome[i] = -1
	}
	return in, scen, nil
}

// buildLinks creates the direction pair of every external edge, with
// the scenario's per-link overrides applied.
func (in *Instance) buildLinks(scen *scenario.Spec) {
	p := &in.Params
	ext := link.Config{
		BandwidthBps:  p.Sys.LinkBandwidthBps(),
		SerDesLatency: p.Sys.SerDesLatency,
		QueueDepth:    p.Sys.LinkBufferPackets,
		Credits:       p.Sys.LinkBufferPackets,
		NoVCPriority:  p.Tuning.NoVCPriority,
		CountHop:      true,
	}
	interposer := ext
	interposer.BandwidthBps *= int64(p.Tuning.InterposerBandwidthX)
	interposer.SerDesLatency = p.Tuning.InterposerSerDes

	in.dirs = make([][2]*link.Direction, len(in.Graph.Edges))
	for ei, e := range in.Graph.Edges {
		base := ext
		if e.Interposer {
			base = interposer
		}
		cfg := linkConfig(base, scen.LinkOf(ei))
		in.dirs[ei] = [2]*link.Direction{link.New(in.Eng, cfg, in.Meter), link.New(in.Eng, cfg, in.Meter)}
	}
}

// portDirs returns the two directions of node's port: out leaves the
// node, arrive lands at it. Graph port indices equal router port
// indices, so this is the one place an edge's orientation is read.
func (in *Instance) portDirs(node packet.NodeID, port int) (out, arrive *link.Direction) {
	ei := in.Graph.EdgeIndex(node, port)
	d := in.dirs[ei]
	if in.Graph.Edges[ei].A == node {
		return d[0], d[1]
	}
	return d[1], d[0]
}

// buildHost creates the workload generator, the migration manager (whose
// constructor schedules the first epoch) and the host port on its link.
func (in *Instance) buildHost() {
	p := &in.Params
	// Per-port load scales inversely with the port count (the
	// system-wide request rate is fixed; §6.1). The host's MLP window
	// scales the same way — the processor's total outstanding capacity
	// is a system property divided across its ports.
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
		in.Recorder = workload.NewRecorder(gen)
		gen = in.Recorder
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
	if p.Migration != nil {
		mc := *p.Migration
		mc.BlockBytes = p.Sys.InterleaveBytes
		in.Migrator = migrate.New(in.Eng, mc, func(phys uint64) config.MemTech {
			return in.Mapper.Tech(in.Mapper.CubeOf(phys))
		}, in.Meter)
		hcfg.Observe, hcfg.ReadyAt, hcfg.Translate = in.Migrator.Observe, in.Migrator.ReadyAt, in.Migrator.Translate
	}
	in.Port = host.New(in.Eng, hcfg, gen, host.Wiring{
		DestOf: func(a uint64) packet.NodeID {
			n := in.Mapper.CubeOf(a)
			if spare := in.rehome[n]; spare >= 0 {
				in.fc.Rehomed++
				return spare
			}
			return n
		},
		DistOf: func(dst packet.NodeID, class topology.PathClass) int {
			return in.live.Dist(class, packet.HostNode, dst)
		},
	}, in.Collector)
	in.Port.Attach(in.portDirs(packet.HostNode, 0))
}

// armFaults is the fault layer's one stage, and a no-op unless
// Params.Fault is enabled, so a disabled config adds zero events and
// the golden fingerprints stay intact. It validates the schedule and
// precomputes every fault's degraded routing graph and re-home target,
// so an unsurvivable scenario (a chain cut, a Full cube kill with no
// redundancy, a kill leaving no memory) fails at Build, not mid-run. It
// then attaches the bit-error streams, schedules the faults, and arms
// the watchdog.
func (in *Instance) armFaults(scen *scenario.Spec) error {
	if !in.Params.Fault.Enabled() {
		return nil
	}
	in.faultCfg = in.Params.Fault.WithDefaults()
	if err := in.faultCfg.Validate(); err != nil {
		return err
	}
	if err := in.planFaults(); err != nil {
		return err
	}
	for ei, e := range in.Graph.Edges {
		// Bit errors afflict package-to-package SerDes channels; the
		// wide parallel interposer traces inside a MetaCube are exempt.
		if e.Interposer {
			continue
		}
		retries := scen.LinkOf(ei).MaxRetries // the link's retry-budget override
		for side, d := range in.dirs[ei] {
			f := in.faultCfg.LinkFault(ei, side)
			if f != nil && retries != nil {
				f.MaxRetries = *retries
			}
			d.AttachFault(f)
		}
	}
	for i, pf := range in.plan {
		if pf.Kind == fault.EvRepairLink {
			// The retraining window opens at the repair instant; the
			// route-back and credit re-arm fire at pf.At when it closes
			// (applyFault's EvRepairLink arm).
			pair := in.dirs[pf.Edge]
			in.Eng.At(pf.Start, func() {
				for _, d := range pair {
					d.BeginRetrain()
				}
			})
		}
		in.Eng.At(pf.At, func() { in.applyFault(i) })
	}
	in.Watchdog = sim.NewWatchdog(in.Eng,
		in.faultCfg.WatchdogInterval, in.faultCfg.WatchdogStale,
		in.Collector.Completed,
		func() bool { return in.Port.Inflight() > 0 })
	in.Watchdog.Arm()
	return nil
}

// buildNodes wires every non-host node in one pass: its router, the
// external ports in adjacency order (so graph port indices equal router
// port indices), a cube's vault quadrants behind them, and the route.
func (in *Instance) buildNodes(scen *scenario.Spec) error {
	p := &in.Params
	vaultLink := link.Config{
		BandwidthBps:  p.Sys.LinkBandwidthBps() * int64(p.Tuning.InternalBandwidthX),
		SerDesLatency: 0,
		QueueDepth:    p.Tuning.VaultQueueDepth,
		Credits:       p.Tuning.VaultQueueDepth,
		CountHop:      false,
	}
	biasHops := techBiasHops(&p.Sys)
	for _, n := range in.Graph.Nodes {
		if n.Kind == topology.Host {
			continue
		}
		deg := in.Graph.Degree(n.ID)
		if n.Kind == topology.Cube && deg+p.Sys.Quadrants > packet.MaxPorts {
			return fmt.Errorf("core: cube %d: %d links plus %d quadrants exceed %d router ports",
				n.ID, deg, p.Sys.Quadrants, packet.MaxPorts)
		}
		r, err := in.newRouter(n, scen, biasHops)
		if err != nil {
			return err
		}
		in.routers[n.ID] = r
		for port := 0; port < deg; port++ {
			out, arrive := in.portDirs(n.ID, port)
			idx := r.AttachPort(link.NewBuffer(arrive.BufferDepth(), arrive.ReturnCredit), out)
			arrive.SetDeliver(r.Deliver(idx))
		}
		if n.Kind == topology.Cube {
			in.quadrants[n.ID] = in.attachQuadrants(r, n, vaultLink)
		}
		r.SetRoute(in.route(n))
	}
	return nil
}

// attachQuadrants creates cube n's vault quadrants, each on a link pair
// to the cube's router at the ports after its external ones.
func (in *Instance) attachQuadrants(r *router.Router, n topology.Node, cfg link.Config) []*vault.Quadrant {
	p := &in.Params
	node, mapper := n.ID, in.Mapper
	retDist := func(pk *packet.Packet) int {
		// Responses travel the short (shortest-path) table.
		return in.live.Dist(topology.PathShort, node, pk.Src)
	}
	inflight := p.Tuning.VaultMaxInflight
	if n.Tech == config.NVM && p.Tuning.NVMMaxInflight > 0 {
		inflight = p.Tuning.NVMMaxInflight
	}
	quads := make([]*vault.Quadrant, p.Sys.Quadrants)
	for qi := range quads {
		toQuad := link.New(in.Eng, cfg, in.Meter)
		fromQuad := link.New(in.Eng, cfg, in.Meter)
		q := vault.New(in.Eng, vault.Config{
			Tech:        n.Tech,
			Timing:      p.Sys.Timing(n.Tech),
			Index:       qi,
			ExtPorts:    in.Graph.Degree(node),
			Penalty:     p.Sys.WrongQuadrantPenalty,
			Banks:       p.Sys.BanksPerQuadrant(),
			MaxInflight: inflight,
			BankMap: func(a uint64) (int, int64) {
				_, _, bank, row := mapper.Decompose(a)
				return bank, row
			},
			ReturnDist: retDist,
			Meter:      in.Meter,
		})
		q.Attach(link.NewBuffer(p.Tuning.VaultQueueDepth, toQuad.ReturnCredit), fromQuad)
		toQuad.SetDeliver(q.Deliver())
		idx := r.AttachPort(link.NewBuffer(p.Tuning.VaultQueueDepth, fromQuad.ReturnCredit), toQuad)
		fromQuad.SetDeliver(r.Deliver(idx))
		quads[qi] = q
	}
	return quads
}

// route returns node n's routing function. A packet for a cube's own
// memory leaves through the quadrant port its address selects, unless
// the cube died after the packet departed; everything else follows the
// live tables, which the host's write-shortcut state selects through
// the packet's stamped class.
func (in *Instance) route(n topology.Node) func(*packet.Packet) int {
	node, isCube := n.ID, n.Kind == topology.Cube
	extDeg := in.Graph.Degree(node)
	mapper := in.Mapper
	return func(pk *packet.Packet) int {
		if isCube && pk.Dst == node {
			if spare := in.rehome[node]; spare >= 0 && pk.Kind.IsRequest() {
				// This cube's memory died after the packet departed:
				// bounce it to the spare now serving the address range.
				pk.Dst = spare
				pk.Distance = in.live.Dist(topology.PathShort, packet.HostNode, spare)
				in.fc.Bounced++
			} else {
				_, quad, _, _ := mapper.Decompose(pk.Addr)
				return extDeg + quad
			}
		}
		port := in.live.NextPort(topology.PathClass(pk.Class), node, pk.Dst)
		if port < 0 {
			panic(fmt.Sprintf("core: no route from %d to %d", node, pk.Dst))
		}
		return port
	}
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
	in.plan = make([]plannedFault, len(evs))

	cur := in.Graph
	deadCubes := make(map[packet.NodeID]bool)
	fullDead := make(map[packet.NodeID]bool)
	for i, ev := range evs {
		pf := &in.plan[i]
		pf.Event = ev
		onCube := ev.Kind == fault.EvKillCube || ev.Kind == fault.EvRepairCube
		if !onCube && ev.Edge >= len(in.Graph.Edges) {
			return fmt.Errorf("core: %v on nonexistent edge %d", ev.Kind, ev.Edge)
		}
		// Lane events change bandwidth only; routing is untouched.
		switch ev.Kind {
		case fault.EvKillLink:
			ng, err := cur.Disable([]int{ev.Edge}, nil)
			if err != nil {
				e := in.Graph.Edges[ev.Edge]
				return fmt.Errorf("core: killing link %d (%d-%d) at %v: %w",
					ev.Edge, e.A, e.B, ev.At, err)
			}
			cur, pf.graph = ng, ng
		case fault.EvRepairLink:
			ng, err := cur.Enable([]int{ev.Edge}, nil)
			if err != nil {
				return fmt.Errorf("core: repairing link %d at %v: %w", ev.Edge, ev.At, err)
			}
			cur, pf.graph = ng, ng
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
				cur, pf.graph = ng, ng
				fullDead[ev.Node] = true
			}
			deadCubes[ev.Node] = true
			spare, err := nearestSurvivor(cur, ev.Node, deadCubes)
			if err != nil {
				return fmt.Errorf("core: killing cube %d at %v: %w", ev.Node, ev.At, err)
			}
			pf.spare = spare
		case fault.EvRepairCube:
			if !deadCubes[ev.Node] {
				return fmt.Errorf("core: repair of cube %d at %v, which is not dead", ev.Node, ev.At)
			}
			if fullDead[ev.Node] {
				ng, err := cur.Enable(nil, []packet.NodeID{ev.Node})
				if err != nil {
					return fmt.Errorf("core: repairing cube %d at %v: %w", ev.Node, ev.At, err)
				}
				cur, pf.graph = ng, ng
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
// hardware, update the re-home table, and kick every router so stranded
// heads re-arbitrate under the new tables.
func (in *Instance) applyFault(i int) {
	pf := &in.plan[i]
	switch pf.Kind {
	case fault.EvLaneFail:
		for _, d := range in.dirs[pf.Edge] {
			d.Downbind()
		}
		in.fc.LaneFails++
		return // no routing change, no kicks needed
	case fault.EvLaneRepair:
		for _, d := range in.dirs[pf.Edge] {
			d.Rebind()
		}
		in.fc.LaneRepairs++
		return // bandwidth-only, like the flap down
	case fault.EvRepairLink:
		// Routes swap back first, so the retrained directions' space
		// callbacks and the kicks below route onto the healed edge.
		in.live = pf.graph
		for _, d := range in.dirs[pf.Edge] {
			d.CompleteRetrain()
		}
		in.fc.LinksRepaired++
	case fault.EvRepairCube:
		if pf.graph != nil {
			in.live = pf.graph
		}
		// New injections target the repaired cube again; packets
		// already bounced to the spare complete there.
		in.rehome[pf.Node] = -1
		in.fc.CubesRepaired++
	case fault.EvKillLink:
		in.live = pf.graph
		// Drain each direction's queued and retrying packets back into
		// the router at its sending end for re-routing. The host edge
		// cannot be killed (it always disconnects), so both ends route.
		e := in.Graph.Edges[pf.Edge]
		from := [2]packet.NodeID{e.A, e.B}
		for side, d := range in.dirs[pf.Edge] {
			d.Fail(in.routers[from[side]].Reinject)
		}
		in.fc.LinksKilled++
	case fault.EvKillCube:
		if pf.graph != nil {
			in.live = pf.graph
		}
		// Collapse chains: victims previously re-homed onto this cube
		// move with it, so lookups stay single-level.
		for n, spare := range in.rehome {
			if spare == pf.Node {
				in.rehome[n] = pf.spare
			}
		}
		in.rehome[pf.Node] = pf.spare
		in.fc.CubesKilled++
	}
	// Kick in node order: sweep scheduling order is part of the
	// reproducibility guarantee for faulty runs.
	for _, r := range in.routers {
		if r != nil {
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

// newRouter builds node n's router under the run-wide arbitration
// policy, write demotion and crossbar bandwidth (the interface-chip
// crossbar for a MetaCube interface), with the node's scenario router
// override, if any, on top. Distance-augmented arbitration biases NVM
// destinations by biasHops.
func (in *Instance) newRouter(n topology.Node, scen *scenario.Spec, biasHops int64) (*router.Router, error) {
	p := &in.Params
	kind, demotion, xbar := p.Arb, p.Tuning.WriteDemotion, p.Tuning.SwitchBandwidthBps
	if n.Kind == topology.Iface {
		xbar = p.Tuning.IfaceSwitchBandwidthBps
	}
	if rs, ok := scen.RouterOf(int(n.ID)); ok {
		if rs.Arb != "" {
			k, err := scenario.ParseArb(rs.Arb)
			if err != nil {
				return nil, fmt.Errorf("core: routers.%d: %w", n.ID, err)
			}
			kind = k
		}
		if rs.WriteDemotion != nil {
			demotion = *rs.WriteDemotion
		}
		if rs.SwitchBandwidthBps != nil {
			xbar = *rs.SwitchBandwidthBps
		}
	}
	cfg := arb.Config{WriteDemotion: demotion}
	if kind == arb.DistanceAugmented {
		mapper := in.Mapper
		cfg.Bias = func(n packet.NodeID) int64 {
			if mapper.Tech(n) == config.NVM {
				return biasHops
			}
			return 0
		}
	}
	return router.New(in.Eng, n.ID, arb.New(kind, cfg), xbar), nil
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
	for _, pair := range in.dirs {
		for _, d := range pair {
			s := d.Stats()
			fc.CRCErrors += s.CRCErrors
			fc.Retries += s.Retries
			fc.Dropped += s.Dropped
			fc.HealedBits += d.HealedBits()
		}
	}
	for _, r := range in.routers {
		if r != nil {
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
