package core

import (
	"reflect"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/energy"
	"memnet/internal/fault"
	"memnet/internal/migrate"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestGoldenPreOverhaulEngine pins fixed-seed simulation output, field for
// field, to values recorded on the pre-overhaul engine (the
// container/heap scheduler at the growth seed). It is the gate for any
// event-engine change: the 4-ary heap, the zero-delay fast lane, the
// typed-argument events, and the packet pool must all preserve the
// exact (time, seq) firing order, so every derived quantity — finish
// times, latency splits, energy, even the raw event count — must be
// bit-identical to the old engine. A drift in any field means the
// scheduler reordered events, not that the model changed.
//
// Regenerate the table (only after an intentional semantic change) by
// printing Results for each config below with Transactions: 2000,
// Seed: 7, workload KMEANS.
func TestGoldenPreOverhaulEngine(t *testing.T) {
	runGolden(t, []goldenRun{
		{"Chain", "KMEANS", topology.Chain, arb.RoundRobin, 1, Tuning{}, nil, Results{Label: "100%-C", Workload: "KMEANS", FinishTime: 8230533, MeanLatency: 115888,
			Breakdown:    stats.Breakdown{ToMem: 44476, InMem: 29362, FromMem: 42050},
			Energy:       energy.Breakdown{NetworkPJ: 6.185472e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 8.054, Events: 179253}},
		{"Ring", "KMEANS", topology.Ring, arb.RoundRobin, 1, Tuning{}, nil, Results{Label: "100%-R", Workload: "KMEANS", FinishTime: 7005209, MeanLatency: 92557,
			Breakdown:    stats.Breakdown{ToMem: 33675, InMem: 30325, FromMem: 28557},
			Energy:       energy.Breakdown{NetworkPJ: 3.833088e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 4.991, Events: 118207}},
		{"Tree", "KMEANS", topology.Tree, arb.RoundRobin, 1, Tuning{}, nil, Results{Label: "100%-T", Workload: "KMEANS", FinishTime: 6312065, MeanLatency: 78689,
			Breakdown:    stats.Breakdown{ToMem: 25754, InMem: 30654, FromMem: 22281},
			Energy:       energy.Breakdown{NetworkPJ: 2.166912e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 2.8215, Events: 74880}},
		{"SkipList", "KMEANS", topology.SkipList, arb.RoundRobin, 1, Tuning{}, nil, Results{Label: "100%-SL", Workload: "KMEANS", FinishTime: 6566265, MeanLatency: 82851,
			Breakdown:    stats.Breakdown{ToMem: 30917, InMem: 28895, FromMem: 23039},
			Energy:       energy.Breakdown{NetworkPJ: 2.986944e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 3.0155, Events: 89209}},
	})
}

// goldenRun is one row of a golden table: a fixed-seed configuration
// (2000 transactions, seed 7) and its exact Results. dram is the DRAM
// fraction of the memory mix; fail lists build-time link cuts.
type goldenRun struct {
	name   string
	wl     string
	topo   topology.Kind
	arb    arb.Kind
	dram   float64
	tuning Tuning
	fail   []int
	want   Results
}

// runGolden simulates every row as a parallel subtest and requires its
// Results, field for field. setup, when given, completes each row's
// Params before the run (faults, migration, a scenario).
func runGolden(t *testing.T, runs []goldenRun, setup ...func(*Params)) {
	for _, c := range runs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			wl, err := workload.ByName(c.wl)
			if err != nil {
				t.Fatal(err)
			}
			sys := config.Default()
			sys.DRAMFraction = c.dram
			p := Params{
				Sys:          sys,
				Topo:         c.topo,
				Arb:          c.arb,
				Workload:     wl,
				Transactions: 2000,
				Seed:         7,
				Tuning:       c.tuning,
				FailLinks:    c.fail,
			}
			for _, f := range setup {
				f(&p)
			}
			res, err := Simulate(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, c.want) {
				t.Errorf("fixed-seed results drifted\n got: %+v\nwant: %+v", res, c.want)
			}
		})
	}
}

// TestGoldenRunTwice double-runs one configuration in-process to catch
// state leaking between instances (e.g. through a shared pool or a
// package-level cache): two builds of the same params must agree exactly.
func TestGoldenRunTwice(t *testing.T) {
	wl, err := workload.ByName("HOTSPOT")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Arb:          arb.Distance,
		Workload:     wl,
		Transactions: 1500,
		Seed:         99,
	}
	a, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same params, different results:\n a: %+v\n b: %+v", a, b)
	}
}

// TestGoldenFailLinks pins fixed-seed Results for build-time link cuts:
// a ring cut next to the root, a skip-list central-chain cut (writes
// fall back onto the express links) and a survivable two-link mesh cut
// listed out of order. The values were recorded before FailLinks became
// one validated edge-list removal, which must reproduce them exactly.
func TestGoldenFailLinks(t *testing.T) {
	runGolden(t, []goldenRun{
		{"Ring", "KMEANS", topology.Ring, arb.RoundRobin, 1, Tuning{}, []int{1}, Results{Label: "100%-R", Workload: "KMEANS", FinishTime: 8437139, MeanLatency: 126261,
			Breakdown:    stats.Breakdown{ToMem: 49630, InMem: 28852, FromMem: 47779},
			Energy:       energy.Breakdown{NetworkPJ: 6.845952e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 8.914, Events: 196438}},
		{"SkipList", "KMEANS", topology.SkipList, arb.DistanceAugmented, 1, Tuning{}, []int{2}, Results{Label: "100%-SL", Workload: "KMEANS", FinishTime: 6549896, MeanLatency: 81240,
			Breakdown:    stats.Breakdown{ToMem: 26990, InMem: 30626, FromMem: 23624},
			Energy:       energy.Breakdown{NetworkPJ: 2.486784e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 3.078, Events: 81871}},
		{"Mesh", "KMEANS", topology.Mesh, arb.Distance, 1, Tuning{}, []int{5, 2}, Results{Label: "100%-M", Workload: "KMEANS", FinishTime: 6838503, MeanLatency: 90587,
			Breakdown:    stats.Breakdown{ToMem: 33175, InMem: 31127, FromMem: 26285},
			Energy:       energy.Breakdown{NetworkPJ: 3.37344e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 4.3925, Events: 106203}},
	})
}

// TestGoldenSchedulePins pins exact fixed-seed Results, the raw event
// count included, for the router configurations the pre-overhaul pins
// leave out: the MetaCube's interface-chip switch under both
// arbitration families, heterogeneous DRAM:NVM mixes (slow NVM
// quadrants back requests up into the switch), the single-VC ablation
// (on write-heavy BACKPROP, where it changes the run) and an ideal,
// unmodelled switch. Any change to the router sweep or the event
// engine must keep the (time, seq) firing order, and so every field
// here, exactly. The values were recorded before the router sweep
// learned to skip an empty VC.
func TestGoldenSchedulePins(t *testing.T) {
	noVC := DefaultTuning()
	noVC.NoVCPriority = true
	ideal := DefaultTuning()
	ideal.SwitchBandwidthBps = 0
	runGolden(t, []goldenRun{
		{"MetaCube/RoundRobin", "KMEANS", topology.MetaCube, arb.RoundRobin, 1, Tuning{}, nil, Results{Label: "100%-MC", Workload: "KMEANS", FinishTime: 5742601, MeanLatency: 63694,
			Breakdown:    stats.Breakdown{ToMem: 12267, InMem: 30641, FromMem: 20786},
			Energy:       energy.Breakdown{NetworkPJ: 2.09856e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 2.7325, Events: 73106}},
		{"MetaCube/DistanceAugmented", "KMEANS", topology.MetaCube, arb.DistanceAugmented, 1, Tuning{}, nil, Results{Label: "100%-MC", Workload: "KMEANS", FinishTime: 5742129, MeanLatency: 63160,
			Breakdown:    stats.Breakdown{ToMem: 12260, InMem: 30899, FromMem: 20001},
			Energy:       energy.Breakdown{NetworkPJ: 2.09856e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 2.7325, Events: 73121}},
		{"MetaCube/NVM50", "KMEANS", topology.MetaCube, arb.Distance, 0.5, Tuning{}, nil, Results{Label: "50%-MC (NVM-L)", Workload: "KMEANS", FinishTime: 6954184, MeanLatency: 82299,
			Breakdown:    stats.Breakdown{ToMem: 12797, InMem: 50857, FromMem: 18645},
			Energy:       energy.Breakdown{NetworkPJ: 2.09856e+07, ReadPJ: 9.824256e+06, WritePJ: 1.2969984e+07},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 2.7325, Events: 73181}},
		{"Tree/NVM50", "KMEANS", topology.Tree, arb.DistanceAugmented, 0.5, Tuning{}, nil, Results{Label: "50%-T (NVM-L)", Workload: "KMEANS", FinishTime: 7350723, MeanLatency: 91869,
			Breakdown:    stats.Breakdown{ToMem: 21763, InMem: 51967, FromMem: 18139},
			Energy:       energy.Breakdown{NetworkPJ: 2.049024e+07, ReadPJ: 9.824256e+06, WritePJ: 1.2969984e+07},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 2.668, Events: 71852}},
		{"SkipList/NoVCPriority", "BACKPROP", topology.SkipList, arb.RoundRobin, 1, noVC, nil, Results{Label: "100%-SL", Workload: "BACKPROP", FinishTime: 5926728, MeanLatency: 86114,
			Breakdown:    stats.Breakdown{ToMem: 46781, InMem: 27433, FromMem: 11900},
			Energy:       energy.Breakdown{NetworkPJ: 4.866176e+07, ReadPJ: 2.562048e+06, WritePJ: 9.725952e+06},
			Transactions: 2000, Reads: 417, Writes: 1583, MeanHops: 3.002, Events: 119581}},
		{"Chain/IdealSwitch", "KMEANS", topology.Chain, arb.DistanceAugmented, 1, ideal, nil, Results{Label: "100%-C", Workload: "KMEANS", FinishTime: 7855680, MeanLatency: 106762,
			Breakdown:    stats.Breakdown{ToMem: 35667, InMem: 29481, FromMem: 41614},
			Energy:       energy.Breakdown{NetworkPJ: 6.185472e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 8.054, Events: 146929}},
	})
}

// TestGoldenBuildStages pins fixed-seed Results for the build paths the
// plain pins leave out: a 50%-NVM skip list under a seeded bit-error
// rate, a lane flap, a link kill and repair and a cube kill and repair,
// with hot-block migration on; a ring link killed with packets queued on
// it; and a scenario whose links override bandwidth, SerDes latency,
// buffer depth and VC count and whose routers override arbitration,
// write demotion and crossbar bandwidth. The values were recorded
// before core.Build was split into stages.
func TestGoldenBuildStages(t *testing.T) {
	runGolden(t, []goldenRun{
		{"SkipList/FaultsMigration", "KMEANS", topology.SkipList, arb.DistanceAugmented, 0.5, Tuning{}, nil, Results{Label: "50%-SL (NVM-L)", Workload: "KMEANS", FinishTime: 7747796, MeanLatency: 98105,
			Breakdown:    stats.Breakdown{ToMem: 27062, InMem: 50123, FromMem: 20920},
			Energy:       energy.Breakdown{NetworkPJ: 2.706688e+07, ReadPJ: 1.7344512e+07, WritePJ: 5.4386688e+07},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 2.994, Events: 84817,
			Fault: stats.FaultCounters{CRCErrors: 5, Retries: 5, Bounced: 4, Rehomed: 69, LaneFails: 1, LinksKilled: 1, CubesKilled: 2,
				LinksRepaired: 1, CubesRepaired: 2, LaneRepairs: 1, HealedBits: 236416}}},
	}, func(p *Params) {
		mc := migrate.DefaultConfig()
		mc.Epoch = sim.Microsecond
		mc.HotThreshold = 2
		p.Migration = &mc
		p.Fault = &fault.Config{
			Seed:        3,
			LinkBER:     1e-6,
			LaneFlaps:   []fault.LaneFlap{{Edge: 1, Down: 500 * sim.Nanosecond, Up: 1500 * sim.Nanosecond}},
			KillLinks:   []fault.LinkKill{{Edge: 5, At: 1400 * sim.Nanosecond}},
			RepairLinks: []fault.LinkRepair{{Edge: 5, At: 2500 * sim.Nanosecond}},
			// Cube 5 is cube 6's spare when it dies, so its victim
			// moves with it.
			KillCubes:   []fault.CubeKill{{Node: 6, At: 1300 * sim.Nanosecond}, {Node: 5, At: 1600 * sim.Nanosecond}},
			RepairCubes: []fault.CubeRepair{{Node: 6, At: 3000 * sim.Nanosecond}, {Node: 5, At: 3500 * sim.Nanosecond}},
		}
	})
	// Killed while its queues hold packets: the link's sending ends
	// salvage them into their routers (Rerouted).
	runGolden(t, []goldenRun{
		{"Ring/SalvageKill", "BACKPROP", topology.Ring, arb.RoundRobin, 1, Tuning{}, nil, Results{Label: "100%-R", Workload: "BACKPROP", FinishTime: 6361201, MeanLatency: 92928,
			Breakdown:    stats.Breakdown{ToMem: 40771, InMem: 30842, FromMem: 21315},
			Energy:       energy.Breakdown{NetworkPJ: 4.150528e+07, ReadPJ: 2.562048e+06, WritePJ: 9.725952e+06},
			Transactions: 2000, Reads: 417, Writes: 1583, MeanHops: 5.4825, Events: 128329,
			Fault: stats.FaultCounters{Rerouted: 2, LinksKilled: 1, LinksRepaired: 1, HealedBits: 382592}}},
	}, func(p *Params) {
		p.Fault = &fault.Config{
			KillLinks:   []fault.LinkKill{{Edge: 1, At: 2200 * sim.Nanosecond}},
			RepairLinks: []fault.LinkRepair{{Edge: 1, At: 3 * sim.Microsecond}},
		}
	})
	runGolden(t, []goldenRun{
		{"Scenario/Overrides", "KMEANS", topology.Scenario, arb.RoundRobin, 1, Tuning{}, nil, Results{Label: "two-pod", Workload: "KMEANS", FinishTime: 7107189, MeanLatency: 89314,
			Breakdown:    stats.Breakdown{ToMem: 36205, InMem: 28635, FromMem: 24474},
			Energy:       energy.Breakdown{NetworkPJ: 2.214528e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 2.8835, Events: 76151}},
	}, func(p *Params) {
		s := twoPod()
		buf, one, bw, ser := 12, 1, int64(40e9), int64(20000)
		s.Links[0].BufferPackets = &buf
		s.Links[2].BandwidthBps = &bw
		s.Links[2].SerDesPs = &ser
		s.Links[5].VCs = &one
		demote, xbar := int64(3), int64(150e9)
		s.Routers = map[string]scenario.Router{
			"a0": {Arb: "distance", WriteDemotion: &demote},
			"x":  {Arb: "augmented", SwitchBandwidthBps: &xbar},
		}
		p.Scenario = s
	})
}
