package main

import (
	"fmt"
	"runtime"
	"time"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/energy"
	"memnet/internal/link"
	"memnet/internal/mem"
	"memnet/internal/packet"
	"memnet/internal/router"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/vault"
	"memnet/internal/workload"
)

// microReps is how many times each layer driver repeats its fixed
// operation count; the reported ns/op is the median repetition.
const microReps = 5

// micro is one layer driver's result.
type micro struct {
	name        string
	nsPerOp     float64
	allocsPerOp float64
}

// driver runs a fixed number of operations of one layer's public API.
// prepare builds fresh state for a repetition and returns the function
// that performs ops operations on it, so only the operations are timed.
type driver struct {
	name    string
	ops     int
	prepare func(ops int) (run func(), err error)
}

// measure runs d microReps times and reports the median ns/op and the
// mean allocations per op.
func (d driver) measure() (micro, error) {
	var ns []float64
	var allocs uint64
	var ms runtime.MemStats
	for rep := 0; rep < microReps; rep++ {
		run, err := d.prepare(d.ops)
		if err != nil {
			return micro{}, fmt.Errorf("%s: %w", d.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		run()
		el := time.Since(start)
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		ns = append(ns, float64(el.Nanoseconds())/float64(d.ops))
	}
	return micro{name: d.name, nsPerOp: median(ns), allocsPerOp: float64(allocs) / float64(microReps*d.ops)}, nil
}

// drivers lists every layer driver. Operation counts are fixed so each
// repetition does the same work; each is sized to tens of milliseconds.
func drivers() []driver {
	return []driver{
		{"sim.dispatch_q1", 400_000, dispatchDriver(1)},
		{"sim.dispatch_q1k", 200_000, dispatchDriver(1024)},
		{"router.grant_p4", 60_000, grantDriver(4)},
		{"router.grant_p8", 60_000, grantDriver(8)},
		{"router.grant_p16", 60_000, grantDriver(16)},
		{"link.hop", 150_000, hopDriver},
		{"vault.request", 40_000, vaultDriver},
		{"mem.access", 500_000, bankDriver},
		{"workload.next", 500_000, generatorDriver},
		{"core.build", 20, buildDriver},
		{"topology.build_skiplist", 300, topologyDriver(topology.SkipList)},
		{"topology.build_metacube", 300, topologyDriver(topology.MetaCube)},
		{"topology.reroute", 300, rerouteDriver},
	}
}

// dispatchDriver keeps pending events queued on a sim.Engine, each
// rescheduling itself at a pseudo-random delay when it fires; one op is
// one Step.
func dispatchDriver(pending int) func(int) (func(), error) {
	return func(ops int) (func(), error) {
		eng := sim.NewEngine()
		rng := sim.NewRand(1)
		var fire sim.Handler
		fire = func() { eng.Schedule(sim.Time(1+rng.Intn(1000)), fire) }
		for i := 0; i < pending; i++ {
			eng.Schedule(sim.Time(rng.Intn(1000)), fire)
		}
		return func() {
			for i := 0; i < ops; i++ {
				eng.Step()
			}
		}, nil
	}
}

// linkCfg is an external-link direction as core wires it by default.
func linkCfg() link.Config {
	sys := config.Default()
	return link.Config{
		BandwidthBps: sys.LinkBandwidthBps(), SerDesLatency: sys.SerDesLatency,
		QueueDepth: sys.LinkBufferPackets, Credits: sys.LinkBufferPackets, CountHop: true,
	}
}

// grantDriver builds a router.Router with the given port count whose
// inputs all hold request packets bound for output 0, so every grant
// has every input contending. A packet leaving output 0 is sent back
// into the input it came from. One op is one grant.
func grantDriver(ports int) func(int) (func(), error) {
	return func(ops int) (func(), error) {
		eng := sim.NewEngine()
		r := router.New(eng, 1, arb.New(arb.RoundRobin, arb.Config{}), 0)
		cfg := linkCfg()
		feeds := make([]*link.Direction, ports)
		for i := 0; i < ports; i++ {
			feed := link.New(eng, cfg, nil)
			out := link.New(eng, cfg, nil)
			idx := r.AttachPort(link.NewBuffer(cfg.Credits, feed.ReturnCredit), out)
			feed.SetDeliver(r.Deliver(idx))
			feeds[i] = feed
			out.SetDeliver(func(p *packet.Packet) {
				out.ReturnCredit(packet.VCRequest)
				feeds[p.EnterPort].Send(p)
			})
		}
		r.SetRoute(func(*packet.Packet) int { return 0 })
		id := uint64(0)
		for i := 0; i < ports; i++ {
			for k := 0; k < cfg.QueueDepth; k++ {
				id++
				feeds[i].Send(&packet.Packet{ID: id, Kind: packet.ReadReq, Dst: 1})
			}
		}
		target := uint64(ops)
		return func() {
			for r.Forwarded[packet.VCRequest] < target && eng.Step() {
			}
		}, nil
	}
}

// hopDriver circulates a full window of packets over one link.Direction:
// every delivery returns its credit and sends the packet again. One op
// is one Send -> deliver -> ReturnCredit hop.
func hopDriver(ops int) (func(), error) {
	eng := sim.NewEngine()
	cfg := linkCfg()
	d := link.New(eng, cfg, nil)
	hops := 0
	d.SetDeliver(func(p *packet.Packet) {
		hops++
		d.ReturnCredit(packet.VCRequest)
		d.Send(p)
	})
	for k := 0; k < cfg.QueueDepth; k++ {
		d.Send(&packet.Packet{ID: uint64(k), Kind: packet.ReadReq, Dst: 1})
	}
	return func() {
		for hops < ops && eng.Step() {
		}
	}, nil
}

// vaultDriver keeps a DRAM vault.Quadrant busy with a closed loop of
// requests (one write in three) over its banks; each response is turned
// into the next request. One op is one request served.
func vaultDriver(ops int) (func(), error) {
	eng := sim.NewEngine()
	sys := config.Default()
	intCfg := link.Config{BandwidthBps: 2 * sys.LinkBandwidthBps(), QueueDepth: 8, Credits: 8}
	toQuad := link.New(eng, intCfg, nil)
	fromQuad := link.New(eng, intCfg, nil)
	banks := sys.BanksPerQuadrant()
	q := vault.New(eng, vault.Config{
		Tech: config.DRAM, Timing: sys.Timing(config.DRAM), Index: 1, ExtPorts: 4,
		Penalty: sys.WrongQuadrantPenalty, Banks: banks, MaxInflight: 16,
		BankMap: func(a uint64) (int, int64) {
			return int(a/64) % banks, int64(a / 64 / uint64(banks))
		},
		ReturnDist: func(*packet.Packet) int { return 3 },
		Meter:      energy.NewMeter(sys.Energy),
	})
	q.Attach(link.NewBuffer(8, toQuad.ReturnCredit), fromQuad)
	toQuad.SetDeliver(q.Deliver())
	rng := sim.NewRand(7)
	served := 0
	id := uint64(0)
	issue := func(p *packet.Packet) {
		id++
		kind := packet.ReadReq
		if id%3 == 0 {
			kind = packet.WriteReq
		}
		*p = packet.Packet{ID: id, Kind: kind, Src: packet.HostNode, Dst: 5,
			Addr: uint64(rng.Intn(1<<20)) * 64, EnterPort: int8(id % 4), Injected: eng.Now()}
		toQuad.Send(p)
	}
	fromQuad.SetDeliver(func(p *packet.Packet) {
		served++
		fromQuad.ReturnCredit(packet.VCOf(p.Kind))
		issue(p)
	})
	for k := 0; k < intCfg.QueueDepth; k++ {
		issue(new(packet.Packet))
	}
	return func() {
		for served < ops && eng.Step() {
		}
	}, nil
}

// bankDriver issues back-to-back accesses to one DRAM mem.Bank over a
// spread of rows, one write in four. One op is one Access.
func bankDriver(ops int) (func(), error) {
	sys := config.Default()
	b := mem.NewBank(config.DRAM, sys.Timing(config.DRAM), 0)
	rng := sim.NewRand(3)
	return func() {
		now := sim.Time(0)
		for i := 0; i < ops; i++ {
			kind := mem.Read
			if i%4 == 3 {
				kind = mem.Write
			}
			now = b.Access(now, int64(rng.Intn(64)), kind)
		}
	}, nil
}

// generatorDriver draws transactions from a workload.Generator over one
// port's footprint. One op is one Next.
func generatorDriver(ops int) (func(), error) {
	spec, err := workload.ByName("KMEANS")
	if err != nil {
		return nil, err
	}
	sys := config.Default()
	g := workload.New(spec, sys.PortCapacity(), 1)
	return func() {
		var sink uint64
		for i := 0; i < ops; i++ {
			sink += g.Next().Addr
		}
		microSink = sink
	}, nil
}

// microSink keeps the generator's output live.
var microSink uint64

// buildParams is the configuration the build drivers construct: the
// paper's proposed skip list with an NVM-last half-DRAM mix.
func buildParams() core.Params {
	sys := config.Default()
	sys.DRAMFraction = 0.5
	return core.Params{Sys: sys, Topo: topology.SkipList, Arb: arb.DistanceAugmented,
		Workload: workload.Suite()[0], Transactions: figuresTxns, Seed: 1}
}

// buildDriver builds the whole simulation with core.Build. One op is
// one Build.
func buildDriver(ops int) (func(), error) {
	p := buildParams()
	if _, err := core.Build(p); err != nil {
		return nil, err
	}
	return func() {
		for i := 0; i < ops; i++ {
			_, _ = core.Build(p) // succeeded above
		}
	}, nil
}

func techs() ([]config.MemTech, error) {
	p := buildParams()
	return core.TechOrder(&p.Sys)
}

// topologyDriver builds the kind's graph and routing tables with
// topology.Build. One op is one Build.
func topologyDriver(kind topology.Kind) func(int) (func(), error) {
	return func(ops int) (func(), error) {
		ts, err := techs()
		if err != nil {
			return nil, err
		}
		group := topology.WithMetaCubeGroup(core.DefaultTuning().MetaCubeGroup)
		if _, err := topology.Build(kind, ts, group); err != nil {
			return nil, err
		}
		return func() {
			for i := 0; i < ops; i++ {
				_, _ = topology.Build(kind, ts, group) // succeeded above
			}
		}, nil
	}
}

// rerouteDriver takes the skip list's first survivable edge down with
// Graph.Disable and back with Enable, recomputing the route tables both
// times. One op is one Disable + Enable pair.
func rerouteDriver(ops int) (func(), error) {
	ts, err := techs()
	if err != nil {
		return nil, err
	}
	g, err := topology.Build(topology.SkipList, ts)
	if err != nil {
		return nil, err
	}
	edge := -1
	for ei := range g.Edges {
		if _, err := g.Disable([]int{ei}, nil); err == nil {
			edge = ei
			break
		}
	}
	if edge < 0 {
		return nil, fmt.Errorf("skip list has no survivable edge")
	}
	return func() {
		for i := 0; i < ops; i++ {
			// Both succeed: the edge was found survivable above.
			down, _ := g.Disable([]int{edge}, nil)
			_, _ = down.Enable([]int{edge}, nil)
		}
	}, nil
}
