package campaign

import (
	"reflect"
	"testing"

	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/migrate"
	"memnet/internal/obs"
	"memnet/internal/scenario"
	"memnet/internal/sim"
	"memnet/internal/span"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// testParams returns a representative publication-grid configuration.
func testParams() core.Params {
	wl := workload.Suite()[0]
	return core.Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Workload:     wl,
		Transactions: 1000,
		Seed:         1,
	}
}

// testScenario returns a small scenario spec for fingerprint checks.
func testScenario() *scenario.Spec {
	return &scenario.Spec{
		Schema: scenario.Schema,
		Name:   "fp-test",
		Nodes:  []scenario.Node{{Name: "c0"}, {Name: "c1"}},
		Links: []scenario.Link{
			{A: "host", B: "c0"},
			{A: "c0", B: "c1"},
		},
	}
}

// TestFingerprintStable checks the fingerprint is a pure function of
// the parameters.
func TestFingerprintStable(t *testing.T) {
	a := FingerprintParams(testParams())
	b := FingerprintParams(testParams())
	if a != b {
		t.Fatalf("identical params fingerprint differently: %s vs %s", a, b)
	}
}

// TestFingerprintSensitivity checks that every class of configuration
// change moves the content address.
func TestFingerprintSensitivity(t *testing.T) {
	base := FingerprintParams(testParams())
	mutations := map[string]func(*core.Params){
		"topology":          func(p *core.Params) { p.Topo = topology.Ring },
		"arbitration":       func(p *core.Params) { p.Arb++ },
		"transactions":      func(p *core.Params) { p.Transactions++ },
		"seed":              func(p *core.Params) { p.Seed++ },
		"workload":          func(p *core.Params) { p.Workload.MeanGap += sim.Nanosecond },
		"ports":             func(p *core.Params) { p.Sys.Ports = 4 },
		"dram-frac":         func(p *core.Params) { p.Sys.DRAMFraction = 0.5 },
		"placement":         func(p *core.Params) { p.Sys.Placement = config.NVMFirst },
		"capacity":          func(p *core.Params) { p.Sys.TotalCapacity /= 2 },
		"banks":             func(p *core.Params) { p.Sys.BanksPerCube /= 2 },
		"serdes":            func(p *core.Params) { p.Sys.SerDesLatency += sim.Nanosecond },
		"nvm-timing":        func(p *core.Params) { p.Sys.NVMTiming.TWR += sim.Nanosecond },
		"energy":            func(p *core.Params) { p.Sys.Energy.NVMWritePJPerBit++ },
		"tuning":            func(p *core.Params) { p.Tuning.WavefrontSize++ },
		"keepsamples":       func(p *core.Params) { p.KeepSamples = true },
		"faillinks":         func(p *core.Params) { p.FailLinks = []int{2} },
		"migration":         func(p *core.Params) { c := migrate.DefaultConfig(); p.Migration = &c },
		"fault-nil-vs-zero": func(p *core.Params) { p.Fault = &fault.Config{} },
		"fault-ber":         func(p *core.Params) { p.Fault = &fault.Config{LinkBER: 1e-6} },
		"fault-kill": func(p *core.Params) {
			p.Fault = &fault.Config{KillCubes: []fault.CubeKill{{Node: 3, At: sim.Microsecond}}}
		},
		"fault-repair": func(p *core.Params) {
			p.Fault = &fault.Config{
				KillCubes:   []fault.CubeKill{{Node: 3, At: sim.Microsecond}},
				RepairCubes: []fault.CubeRepair{{Node: 3, At: 2 * sim.Microsecond}},
			}
		},
		"fault-flap": func(p *core.Params) {
			p.Fault = &fault.Config{LaneFlaps: []fault.LaneFlap{{Edge: 1, Down: sim.Microsecond, Up: 2 * sim.Microsecond}}}
		},
		"fault-retrain": func(p *core.Params) {
			p.Fault = &fault.Config{RetrainWindow: sim.Microsecond}
		},
		"scenario-nil-vs-set": func(p *core.Params) { p.Scenario = testScenario() },
		"scenario-name": func(p *core.Params) {
			s := testScenario()
			s.Name = "other"
			p.Scenario = s
		},
		"scenario-link-override": func(p *core.Params) {
			s := testScenario()
			depth := 4
			s.Links[1].BufferPackets = &depth
			p.Scenario = s
		},
		"scenario-router-override": func(p *core.Params) {
			s := testScenario()
			s.Routers = map[string]scenario.Router{"c0": {Arb: "distance"}}
			p.Scenario = s
		},
	}
	got := map[Fingerprint]string{base: "base"}
	for name, mut := range mutations {
		p := testParams()
		mut(&p)
		fp := FingerprintParams(p)
		if fp == base {
			t.Errorf("mutation %q does not change the fingerprint", name)
		}
		if prev, dup := got[fp]; dup {
			t.Errorf("mutations %q and %q collide (%s)", name, prev, fp)
		}
		got[fp] = name
	}
}

// TestFingerprintScenarioReload checks the cache-hit property behind
// "cached sweeps extend for free": two independent loads of the same
// scenario document — and a reformatted, default-elided variant of it —
// fingerprint identically, so re-running a scenario campaign hits.
func TestFingerprintScenarioReload(t *testing.T) {
	sparse := []byte(`{"schema":"memnet/scenario/v1","name":"fp-test",` +
		`"nodes":[{"name":"c0"},{"name":"c1"}],` +
		`"links":[{"a":"host","b":"c0"},{"a":"c0","b":"c1"}]}`)
	verbose := []byte(`{
		"name": "fp-test",
		"schema": "memnet/scenario/v1",
		"links": [
			{"b": "c0", "a": "host", "express": false},
			{"a": "c0", "b": "c1"}
		],
		"nodes": [
			{"name": "c0", "kind": "cube", "tech": "dram", "pos": 0},
			{"name": "c1", "pos": 1}
		]
	}`)
	fp := func(doc []byte) Fingerprint {
		s, err := scenario.Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		p := testParams()
		p.Topo = topology.Scenario
		p.Scenario = s
		return FingerprintParams(p)
	}
	a, b, c := fp(sparse), fp(sparse), fp(verbose)
	if a != b {
		t.Errorf("re-loaded scenario fingerprints differ: %s vs %s", a, b)
	}
	if a != c {
		t.Errorf("reformatted scenario fingerprints differ: %s vs %s", a, c)
	}
	// A scenario run stays cacheable.
	s, err := scenario.Decode(sparse)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Scenario = s
	if !Cacheable(p) {
		t.Error("scenario run must be cacheable")
	}
}

// TestCacheable checks the side-artifact exclusions.
func TestCacheable(t *testing.T) {
	p := testParams()
	if !Cacheable(p) {
		t.Fatal("plain run should be cacheable")
	}
	rp := p
	rp.Replay = []workload.Tx{{}}
	rec := p
	rec.Record = true
	tr := p
	tr.TraceDepth = 8
	sp := p
	sp.Spans = &span.Config{SampleStride: 4}
	ob := p
	ob.Obs = &obs.Config{Enabled: true}
	for name, q := range map[string]core.Params{"replay": rp, "record": rec, "trace": tr, "spans": sp, "telemetry": ob} {
		if Cacheable(q) {
			t.Errorf("%s run must not be cacheable", name)
		}
	}
	// A layer config that Build does not arm produces no side artifact.
	off := p
	off.Obs = &obs.Config{}
	if !Cacheable(off) {
		t.Error("run with disabled telemetry must be cacheable")
	}
}

// TestFingerprintCoverage pins the shapes of every struct the
// fingerprint folds. If this test fails, a configuration struct gained,
// lost, or renamed a field: extend the corresponding hash function in
// fingerprint.go to cover it (or consciously exclude it), bump
// CacheSchema if the change alters simulation semantics, and then
// update the pinned list here.
func TestFingerprintCoverage(t *testing.T) {
	pinned := []struct {
		v    any
		want []string
	}{
		{core.Params{}, []string{
			"Sys", "Topo", "Arb", "Workload", "Transactions", "Seed",
			"KeepSamples", "Replay", "Record", "TraceDepth", "Migration",
			"FailLinks", "Fault", "Obs", "Spans", "Scenario", "Tuning",
		}},
		{config.System{}, []string{
			"Ports", "TotalCapacity", "DRAMCubeCapacity", "NVMCubeCapacity",
			"DRAMFraction", "Placement", "BanksPerCube", "Quadrants",
			"RowBytes", "LinkLanes", "LaneRateBps", "SerDesLatency",
			"WrongQuadrantPenalty", "LinkBufferPackets", "InterleaveBytes",
			"MaxOutstanding", "HostLatency", "DRAMTiming", "NVMTiming", "Energy",
		}},
		{config.MemTiming{}, []string{
			"TRCD", "TCL", "TRP", "TRAS", "TWR", "Burst", "RefInterval", "RefDuration",
		}},
		{config.Energy{}, []string{
			"NetworkPJPerBitHop", "DRAMReadPJPerBit", "DRAMWritePJPerBit",
			"NVMReadPJPerBit", "NVMWritePJPerBit",
		}},
		{workload.Spec{}, []string{
			"Name", "ReadFraction", "MeanGap", "SeqProb", "SeqStride",
			"HotFraction", "HotRegion", "RMWFraction", "BurstProb",
			"BurstLen", "BurstWriteFrac", "Window",
		}},
		{core.Tuning{}, []string{
			"VaultQueueDepth", "VaultMaxInflight", "InternalBandwidthX",
			"SwitchBandwidthBps", "IfaceSwitchBandwidthBps",
			"InterposerBandwidthX", "InterposerSerDes", "ShortcutHi",
			"ShortcutLo", "ShortcutWindow", "NVMMaxInflight",
			"MetaCubeGroup", "WavefrontSize", "WriteDemotion", "NoVCPriority",
		}},
		{migrate.Config{}, []string{
			"Epoch", "HotThreshold", "MaxSwapsPerEpoch", "BlockBytes",
			"Blackout", "SettleEpochs",
		}},
		{fault.Config{}, []string{
			"Seed", "LinkBER", "MaxRetries", "RetryBackoff", "KillLinks",
			"KillCubes", "LaneFails", "RepairLinks", "RepairCubes",
			"LaneFlaps", "RetrainWindow", "Watchdog", "WatchdogInterval",
			"WatchdogStale",
		}},
		{fault.LinkKill{}, []string{"Edge", "At"}},
		{fault.CubeKill{}, []string{"Node", "At", "Full"}},
		{fault.LaneFail{}, []string{"Edge", "At"}},
		{fault.LinkRepair{}, []string{"Edge", "At"}},
		{fault.CubeRepair{}, []string{"Node", "At"}},
		{fault.LaneFlap{}, []string{"Edge", "Down", "Up"}},
	}
	for _, pin := range pinned {
		rt := reflect.TypeOf(pin.v)
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			got = append(got, rt.Field(i).Name)
		}
		if !reflect.DeepEqual(got, pin.want) {
			t.Errorf("%s fields changed:\n  got  %v\n  want %v\nextend the fingerprint coverage (fingerprint.go), consider a CacheSchema bump, then update this pin",
				rt, got, pin.want)
		}
	}
}
