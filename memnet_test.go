package memnet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRunDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 2000 {
		t.Fatalf("completed %d", res.Transactions)
	}
	if res.Label != "100%-T" {
		t.Fatalf("label %q", res.Label)
	}
	if res.FinishTime <= 0 || res.MeanLatency <= 0 {
		t.Fatal("timings not populated")
	}
	if res.Energy.TotalPJ() <= 0 {
		t.Fatal("energy not populated")
	}
}

func TestBuildExposesInstance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 500
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if in.Graph.NumNodes() != 17 { // host + 16 cubes
		t.Fatalf("nodes = %d", in.Graph.NumNodes())
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 500 {
		t.Fatal("instance run incomplete")
	}
}

func TestCustomWorkload(t *testing.T) {
	spec := WorkloadSpec{
		Name: "custom", ReadFraction: 1.0,
		MeanGap: 10 * Nanosecond, SeqProb: 0.9, SeqStride: 64,
	}
	cfg := DefaultConfig()
	cfg.Custom = &spec
	cfg.Transactions = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes != 0 {
		t.Fatalf("all-read workload produced %d writes", res.Writes)
	}
}

func TestConfigErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = "MISSING"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown workload must fail")
	}
	cfg = Config{Topology: Tree, DRAMFraction: 1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("missing workload must fail")
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := DefaultConfig()
	a.Transactions = 1500
	b := a
	b.Topology = Chain
	s, err := Speedup(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("tree over chain speedup %.2f, want positive", s)
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(Workloads()) != 8 {
		t.Fatal("suite size")
	}
	if _, err := WorkloadByName("NW"); err != nil {
		t.Fatal(err)
	}
}

func TestSystemOverride(t *testing.T) {
	sys := DefaultSystem()
	sys.Ports = 4
	cfg := DefaultConfig()
	cfg.System = &sys
	cfg.Transactions = 1000
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 ports -> 512GB/port -> 32 cubes.
	if got := len(in.Graph.CubeIDs()); got != 32 {
		t.Fatalf("cubes = %d, want 32", got)
	}
}

func TestRecordAndReplay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 800
	cfg.Record = true
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	trace := in.Recorder.Trace()
	if len(trace) < 800 {
		t.Fatalf("recorded %d", len(trace))
	}

	// Replaying the captured trace reproduces the run exactly.
	replay := DefaultConfig()
	replay.Transactions = 800
	replay.Workload = ""
	replay.ReplayTrace = trace
	res, err := Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishTime != orig.FinishTime || res.Reads != orig.Reads {
		t.Fatalf("replay diverged: %v/%d vs %v/%d",
			res.FinishTime, res.Reads, orig.FinishTime, orig.Reads)
	}
}

func TestAblationTunings(t *testing.T) {
	base := DefaultConfig()
	base.Transactions = 1500
	r0, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal switch must be at least as fast as the contended one.
	tn := DefaultTuning()
	tn.SwitchBandwidthBps = 0
	fast := base
	fast.Tuning = &tn
	r1, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinishTime > r0.FinishTime {
		t.Fatalf("ideal switch slower: %v > %v", r1.FinishTime, r0.FinishTime)
	}
	// A tiny window must slow completion substantially.
	sys := DefaultSystem()
	sys.MaxOutstanding = 8
	slow := base
	slow.System = &sys
	r2, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if float64(r2.FinishTime) < float64(r0.FinishTime)*1.3 {
		t.Fatalf("window=8 barely slowed the run: %v vs %v", r2.FinishTime, r0.FinishTime)
	}
}

func TestFailLinksPublic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = Ring
	cfg.Transactions = 800
	cfg.FailLinks = []int{2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 800 {
		t.Fatal("degraded ring did not complete")
	}
	cfg.Topology = Chain
	if _, err := Run(cfg); err == nil {
		t.Fatal("chain cut must fail")
	}
}

// TestGenerateChaosHonorsFailLinks: a chaos schedule for a configuration
// with FailLinks is generated against the cut graph the run builds, so
// every scheduled kill names an edge of that graph and every schedule
// runs. Validated against the uncut graph, the skip list's schedules
// named edges the cut had shifted or removed.
func TestGenerateChaosHonorsFailLinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = SkipList
	cfg.Transactions = 1000
	cfg.FailLinks = []int{2}
	for seed := uint64(1); seed <= 8; seed++ {
		fc, err := GenerateChaos(cfg, ChaosSpec{Seed: seed, Horizon: 4 * Microsecond, LinkKills: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		run := cfg
		run.Fault = fc
		in, err := Build(run)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, k := range fc.KillLinks {
			if k.Edge < 0 || k.Edge >= len(in.Graph.Edges) {
				t.Fatalf("seed %d: kill of edge %d, the run's graph has %d", seed, k.Edge, len(in.Graph.Edges))
			}
		}
		res, err := in.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Fault.LinksKilled != uint64(len(fc.KillLinks)) {
			t.Fatalf("seed %d: %d of %d scheduled kills applied", seed, res.Fault.LinksKilled, len(fc.KillLinks))
		}
	}
}

// TestNegativeMetaCubeGroupRejected: every path from a Config to its
// graph applies the one MetaCubeGroup rule and rejects a negative group.
func TestNegativeMetaCubeGroupRejected(t *testing.T) {
	tn := DefaultTuning()
	tn.MetaCubeGroup = -1
	for _, topo := range []Topology{MetaCube, Ring} {
		cfg := DefaultConfig()
		cfg.Topology = topo
		cfg.Transactions = 500
		cfg.Tuning = &tn
		_, runErr := Run(cfg)
		_, chaosErr := GenerateChaos(cfg, ChaosSpec{Seed: 1, Horizon: Microsecond, CubeKills: 1})
		_, exportErr := ExportScenario(cfg, "")
		for name, err := range map[string]error{"Run": runErr, "GenerateChaos": chaosErr, "ExportScenario": exportErr} {
			if err == nil || !strings.Contains(err.Error(), "MetaCubeGroup: negative group -1") {
				t.Errorf("%v: %s error %v, want a negative MetaCubeGroup rejection", topo, name, err)
			}
		}
	}
}

// TestParseTopologyLabels walks every label the mnsim and mnsweep
// -topology flags have accepted, in several cases, and near misses
// they have rejected.
func TestParseTopologyLabels(t *testing.T) {
	accept := map[string]Topology{
		"chain": Chain, "c": Chain,
		"ring": Ring, "r": Ring,
		"tree": Tree, "t": Tree,
		"skiplist": SkipList, "skip-list": SkipList, "sl": SkipList,
		"metacube": MetaCube, "mc": MetaCube,
		"mesh": Mesh, "m": Mesh,
	}
	for label, want := range accept {
		for _, l := range []string{label, strings.ToUpper(label), strings.ToUpper(label[:1]) + label[1:]} {
			got, err := ParseTopology(l)
			if err != nil || got != want {
				t.Errorf("ParseTopology(%q) = %v, %v; want %v", l, got, err, want)
			}
		}
	}
	for _, l := range []string{"", "scenario", "sc", "skip_list", "skip list", "meta-cube", "chains", "x", " ring"} {
		if k, err := ParseTopology(l); err == nil {
			t.Errorf("ParseTopology(%q) = %v, want an error", l, k)
		} else if err.Error() != fmt.Sprintf("unknown topology %q", l) {
			t.Errorf("ParseTopology(%q) error %q", l, err)
		}
	}
}

func TestMigrationPublic(t *testing.T) {
	mc := DefaultMigration()
	cfg := DefaultConfig()
	cfg.DRAMFraction = 0.5
	cfg.Workload = "HOTSPOT"
	cfg.Transactions = 2000
	cfg.Migration = &mc
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Migrator == nil {
		t.Fatal("migrator not exposed")
	}
	if in.Migrator.Stats().Epochs == 0 {
		t.Fatal("migration epochs never ran")
	}
}

// TestRunMachineWholeSystem checks the whole-machine aggregates against
// the per-port results and the paper's disjoint-port symmetry (§2.3).
func TestRunMachineWholeSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transactions = 1200
	mr, err := RunMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.PerPort) != 8 {
		t.Fatalf("ports = %d", len(mr.PerPort))
	}
	// The machine finishes with its slowest port.
	var maxFin, minFin Time
	for i, r := range mr.PerPort {
		if i == 0 || r.FinishTime > maxFin {
			maxFin = r.FinishTime
		}
		if i == 0 || r.FinishTime < minFin {
			minFin = r.FinishTime
		}
	}
	if mr.FinishTime != maxFin {
		t.Fatalf("finish %v, want the slowest port's %v", mr.FinishTime, maxFin)
	}
	// Ports are statistically identical: the paper's disjoint-slice
	// argument predicts a small finish-time spread.
	if spread := float64(maxFin)/float64(minFin) - 1; spread > 0.15 {
		t.Fatalf("port spread %.2f too large for symmetric ports", spread)
	}
	total := mr.Energy.TotalPJ()
	if mr.MeanLatency <= 0 || total <= 0 {
		t.Fatal("aggregates not populated")
	}
	// Energy is roughly 8x a single port's.
	single := mr.PerPort[0].Energy.TotalPJ()
	if total < 6*single || total > 10*single {
		t.Fatalf("machine energy %.0f vs single %.0f", total, single)
	}
	// Port 0 keeps the base seed, so it is the single-port run.
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mr.PerPort[0], res) {
		t.Errorf("port 0 differs from Run\n port0: %+v\n   run: %+v", mr.PerPort[0], res)
	}
}
