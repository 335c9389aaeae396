package core

import (
	"reflect"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/energy"
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
// Results, field for field.
func runGolden(t *testing.T, runs []goldenRun) {
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
			res, err := Simulate(Params{
				Sys:          sys,
				Topo:         c.topo,
				Arb:          c.arb,
				Workload:     wl,
				Transactions: 2000,
				Seed:         7,
				Tuning:       c.tuning,
				FailLinks:    c.fail,
			})
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
	var wl workload.Spec
	for _, s := range workload.Suite() {
		if s.Name == "SRAD" {
			wl = s
		}
	}
	if wl.Name == "" {
		wl = workload.Suite()[0]
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
