package experiments

import (
	"reflect"
	"testing"

	"memnet/internal/core"
	"memnet/internal/topology"
)

// TestChaosQuick runs the chaos validation harness at reduced scale:
// the harness itself machine-checks conservation, determinism,
// schedule application, and route-back, so a returned table means the
// invariants held on every topology.
func TestChaosQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	r := NewRunner(QuickOptions())
	tab, err := r.Chaos()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(chaosTopos) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(chaosTopos))
	}
	sawRepair := false
	for _, row := range tab.Rows {
		// Columns: link kills, cube kills, lane flaps, ...
		if row.Values[0]+row.Values[1]+row.Values[2] > 0 {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Error("no topology received any chaos event")
	}
	t.Logf("\n%s", tab.Text())
}

// TestChaosScheduleStable: the generated schedule is a pure function
// of the options — two runners with the same options derive identical
// fault configs (the campaign-fingerprint stability requirement).
func TestChaosScheduleStable(t *testing.T) {
	opts := QuickOptions()
	r := NewRunner(opts)
	wl := r.Opts.suite()[0]
	cfg := MNConfig{Topo: chaosTopos[1], DRAMFraction: 1.0}
	a, err := chaosFault(r.params(cfg, wl), opts, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaosFault(NewRunner(opts).params(cfg, wl), opts, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("chaos schedules differ between identical runners:\n a: %+v\n b: %+v", a, b)
	}
}

// TestChaosFaultHonorsFailLinks: the harness's schedule generator
// builds the graph the run builds, so a configuration with a
// build-time cut gets kills that name edges of the cut graph, and
// every seed's schedule runs.
func TestChaosFaultHonorsFailLinks(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		opts := Options{Transactions: 1500, Seed: seed}
		r := NewRunner(opts)
		wl := r.Opts.suite()[0]
		p := r.params(MNConfig{Topo: topology.SkipList, DRAMFraction: 1.0}, wl)
		p.FailLinks = []int{2}
		fc, err := chaosFault(p, opts, wl)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p.Fault = &fc
		in, err := core.Build(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, k := range fc.KillLinks {
			if k.Edge < 0 || k.Edge >= len(in.Graph.Edges) {
				t.Fatalf("seed %d: kill of edge %d, the run's graph has %d", seed, k.Edge, len(in.Graph.Edges))
			}
		}
		if _, err := in.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
