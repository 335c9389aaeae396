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
	golden := map[topology.Kind]Results{
		topology.Chain: {Label: "100%-C", Workload: "KMEANS", FinishTime: 8230533, MeanLatency: 115888,
			Breakdown:    stats.Breakdown{ToMem: 44476, InMem: 29362, FromMem: 42050},
			Energy:       energy.Breakdown{NetworkPJ: 6.185472e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 8.054, Events: 179253},
		topology.Ring: {Label: "100%-R", Workload: "KMEANS", FinishTime: 7005209, MeanLatency: 92557,
			Breakdown:    stats.Breakdown{ToMem: 33675, InMem: 30325, FromMem: 28557},
			Energy:       energy.Breakdown{NetworkPJ: 3.833088e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 4.991, Events: 118207},
		topology.Tree: {Label: "100%-T", Workload: "KMEANS", FinishTime: 6312065, MeanLatency: 78689,
			Breakdown:    stats.Breakdown{ToMem: 25754, InMem: 30654, FromMem: 22281},
			Energy:       energy.Breakdown{NetworkPJ: 2.166912e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 2.8215, Events: 74880},
		topology.SkipList: {Label: "100%-SL", Workload: "KMEANS", FinishTime: 6566265, MeanLatency: 82851,
			Breakdown:    stats.Breakdown{ToMem: 30917, InMem: 28895, FromMem: 23039},
			Energy:       energy.Breakdown{NetworkPJ: 2.986944e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 3.0155, Events: 89209},
	}

	var wl workload.Spec
	for _, s := range workload.Suite() {
		if s.Name == "KMEANS" {
			wl = s
		}
	}
	if wl.Name == "" {
		t.Fatal("KMEANS workload missing from suite")
	}
	for _, k := range []topology.Kind{topology.Chain, topology.Ring, topology.Tree, topology.SkipList} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Simulate(Params{
				Sys:          config.Default(),
				Topo:         k,
				Arb:          arb.RoundRobin,
				Workload:     wl,
				Transactions: 2000,
				Seed:         7,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := golden[k]
			if !reflect.DeepEqual(res, want) {
				t.Errorf("fixed-seed results drifted from the pre-refactor engine\n got: %+v\nwant: %+v", res, want)
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
	wl, err := workload.ByName("KMEANS")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		topo topology.Kind
		arb  arb.Kind
		fail []int
		want Results
	}{
		{topology.Ring, arb.RoundRobin, []int{1}, Results{Label: "100%-R", Workload: "KMEANS", FinishTime: 8437139, MeanLatency: 126261,
			Breakdown:    stats.Breakdown{ToMem: 49630, InMem: 28852, FromMem: 47779},
			Energy:       energy.Breakdown{NetworkPJ: 6.845952e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 8.914, Events: 196438}},
		{topology.SkipList, arb.DistanceAugmented, []int{2}, Results{Label: "100%-SL", Workload: "KMEANS", FinishTime: 6549896, MeanLatency: 81240,
			Breakdown:    stats.Breakdown{ToMem: 26990, InMem: 30626, FromMem: 23624},
			Energy:       energy.Breakdown{NetworkPJ: 2.486784e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 3.078, Events: 81871}},
		{topology.Mesh, arb.Distance, []int{5, 2}, Results{Label: "100%-M", Workload: "KMEANS", FinishTime: 6838503, MeanLatency: 90587,
			Breakdown:    stats.Breakdown{ToMem: 33175, InMem: 31127, FromMem: 26285},
			Energy:       energy.Breakdown{NetworkPJ: 3.37344e+07, ReadPJ: 9.824256e+06, WritePJ: 2.463744e+06},
			Transactions: 2000, Reads: 1599, Writes: 401, MeanHops: 4.3925, Events: 106203}},
	} {
		c := c
		t.Run(c.topo.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Simulate(Params{
				Sys:          config.Default(),
				Topo:         c.topo,
				Arb:          c.arb,
				Workload:     wl,
				Transactions: 2000,
				Seed:         7,
				FailLinks:    c.fail,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, c.want) {
				t.Errorf("FailLinks %v results drifted\n got: %+v\nwant: %+v", c.fail, res, c.want)
			}
		})
	}
}
