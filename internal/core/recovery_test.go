package core

import (
	"reflect"
	"testing"

	"memnet/internal/fault"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// TestLinkKillRepairRouteBack: a severed ring segment is repaired
// mid-run; traffic routes around while it is down, then back over the
// healed link — observable as HealedBits — and the run completes every
// transaction, deterministically.
func TestLinkKillRepairRouteBack(t *testing.T) {
	p := faultParams(t, topology.Ring, &fault.Config{
		KillLinks:   []fault.LinkKill{{Edge: 2, At: 500 * sim.Nanosecond}},
		RepairLinks: []fault.LinkRepair{{Edge: 2, At: 1200 * sim.Nanosecond}},
	})
	res, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != p.Transactions {
		t.Fatalf("completed %d/%d through a kill/repair cycle", res.Transactions, p.Transactions)
	}
	f := res.Fault
	if f.LinksKilled != 1 || f.LinksRepaired != 1 {
		t.Fatalf("kill/repair not applied: %+v", f)
	}
	if f.HealedBits == 0 {
		t.Fatalf("no traffic routed back over the healed link: %+v", f)
	}
	replay, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, replay) {
		t.Errorf("kill/repair run nondeterministic:\n a: %+v\n b: %+v", res, replay)
	}
}

// TestRepairBeatsPermanentKill: repairing the link partway through must
// not finish later than leaving it dead for the rest of the run, and a
// healthy run is at least as fast as either.
func TestRepairBeatsPermanentKill(t *testing.T) {
	healthy, err := Simulate(faultParams(t, topology.Ring, nil))
	if err != nil {
		t.Fatal(err)
	}
	perm, err := Simulate(faultParams(t, topology.Ring, &fault.Config{
		KillLinks: []fault.LinkKill{{Edge: 2, At: 500 * sim.Nanosecond}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(faultParams(t, topology.Ring, &fault.Config{
		KillLinks:   []fault.LinkKill{{Edge: 2, At: 500 * sim.Nanosecond}},
		RepairLinks: []fault.LinkRepair{{Edge: 2, At: 1000 * sim.Nanosecond}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinishTime > perm.FinishTime {
		t.Errorf("repairing the link slowed the run: repaired %v > permanent %v",
			rep.FinishTime, perm.FinishTime)
	}
	if rep.FinishTime < healthy.FinishTime {
		t.Errorf("outage run beat the healthy baseline: %v < %v",
			rep.FinishTime, healthy.FinishTime)
	}
}

// TestCubeKillRepairRehomesBack: a repaired cube takes its address
// range back from the spare, and the run completes with both counters
// set.
func TestCubeKillRepairRehomesBack(t *testing.T) {
	p := faultParams(t, topology.Chain, &fault.Config{
		KillCubes:   []fault.CubeKill{{Node: 4, At: 500 * sim.Nanosecond}},
		RepairCubes: []fault.CubeRepair{{Node: 4, At: 1500 * sim.Nanosecond}},
	})
	res, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != p.Transactions {
		t.Fatalf("completed %d/%d through a cube kill/repair", res.Transactions, p.Transactions)
	}
	f := res.Fault
	if f.CubesKilled != 1 || f.CubesRepaired != 1 {
		t.Fatalf("cube kill/repair not applied: %+v", f)
	}
	if f.Rehomed+f.Bounced == 0 {
		t.Fatalf("outage re-homed no traffic: %+v", f)
	}
}

// TestFullCubeKillRepair: a Full kill (router too) repairs back to full
// transit service on a redundant topology.
func TestFullCubeKillRepair(t *testing.T) {
	p := faultParams(t, topology.Ring, &fault.Config{
		KillCubes:   []fault.CubeKill{{Node: 5, At: 500 * sim.Nanosecond, Full: true}},
		RepairCubes: []fault.CubeRepair{{Node: 5, At: 1500 * sim.Nanosecond}},
	})
	res, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != p.Transactions || res.Fault.CubesRepaired != 1 {
		t.Fatalf("full kill/repair run incomplete: %+v", res.Fault)
	}
}

// TestLaneFlapRestoresWidth: a transient flap degrades then re-binds;
// both halves are counted and the flapped run sits between the healthy
// and permanently-degraded runs.
func TestLaneFlapRestoresWidth(t *testing.T) {
	healthy, err := Simulate(faultParams(t, topology.Chain, nil))
	if err != nil {
		t.Fatal(err)
	}
	perm, err := Simulate(faultParams(t, topology.Chain, &fault.Config{
		LaneFails: []fault.LaneFail{{Edge: 0, At: 200 * sim.Nanosecond}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	p := faultParams(t, topology.Chain, &fault.Config{
		LaneFlaps: []fault.LaneFlap{{Edge: 0, Down: 200 * sim.Nanosecond, Up: 1200 * sim.Nanosecond}},
	})
	res, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fault
	if f.LaneFails != 1 || f.LaneRepairs != 1 {
		t.Fatalf("flap halves not applied: %+v", f)
	}
	if res.Transactions != p.Transactions {
		t.Fatalf("completed %d/%d through a lane flap", res.Transactions, p.Transactions)
	}
	if res.FinishTime < healthy.FinishTime {
		t.Errorf("flapped run beat the healthy baseline: %v < %v", res.FinishTime, healthy.FinishTime)
	}
	if res.FinishTime > perm.FinishTime {
		t.Errorf("transient flap slower than a permanent lane failure: %v > %v",
			res.FinishTime, perm.FinishTime)
	}
}

// TestRekillAfterRepair: the same edge can die, heal, and die again;
// both outages are routed around and counted.
func TestRekillAfterRepair(t *testing.T) {
	p := faultParams(t, topology.Ring, &fault.Config{
		KillLinks: []fault.LinkKill{
			{Edge: 2, At: 400 * sim.Nanosecond},
			{Edge: 2, At: 1600 * sim.Nanosecond},
		},
		RepairLinks: []fault.LinkRepair{
			{Edge: 2, At: 800 * sim.Nanosecond},
			{Edge: 2, At: 2 * sim.Microsecond},
		},
	})
	res, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fault
	if f.LinksKilled != 2 || f.LinksRepaired != 2 {
		t.Fatalf("re-kill cycle not fully applied: %+v", f)
	}
	if res.Transactions != p.Transactions {
		t.Fatalf("completed %d/%d through two outages", res.Transactions, p.Transactions)
	}
}

// TestInvalidRepairRejectedAtBuild: timeline violations surface at
// Build with a diagnostic, never mid-run.
func TestInvalidRepairRejectedAtBuild(t *testing.T) {
	cases := []struct {
		name string
		fc   fault.Config
	}{
		{"repair without kill",
			fault.Config{RepairLinks: []fault.LinkRepair{{Edge: 2, At: sim.Microsecond}}}},
		{"repair before kill",
			fault.Config{
				KillLinks:   []fault.LinkKill{{Edge: 2, At: 2 * sim.Microsecond}},
				RepairLinks: []fault.LinkRepair{{Edge: 2, At: sim.Microsecond}},
			}},
		{"cube repair of healthy cube",
			fault.Config{RepairCubes: []fault.CubeRepair{{Node: 4, At: sim.Microsecond}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := tc.fc
			if _, err := Build(faultParams(t, topology.Ring, &fc)); err == nil {
				t.Fatalf("%s accepted at Build", tc.name)
			}
		})
	}
}

// TestMachineShardsWithRepairs: a whole-machine run under an active
// kill/repair/flap schedule stays byte-identical across worker counts —
// the recovery path preserves the machine run's determinism contract.
func TestMachineShardsWithRepairs(t *testing.T) {
	base := machineBase(t, topology.Ring, 400)
	base.Fault = &fault.Config{
		KillLinks:   []fault.LinkKill{{Edge: 2, At: 400 * sim.Nanosecond}},
		RepairLinks: []fault.LinkRepair{{Edge: 2, At: sim.Microsecond}},
		KillCubes:   []fault.CubeKill{{Node: 4, At: 600 * sim.Nanosecond}},
		RepairCubes: []fault.CubeRepair{{Node: 4, At: 1400 * sim.Nanosecond}},
		LaneFlaps:   []fault.LaneFlap{{Edge: 3, Down: 300 * sim.Nanosecond, Up: 900 * sim.Nanosecond}},
	}
	var runs []MachineResults
	for _, shards := range []int{1, 2, 4} {
		mr, err := RunMachine(MachineParams{Base: base, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if mr.Transactions != base.Transactions*uint64(base.Sys.Ports) {
			t.Fatalf("shards=%d: machine completed %d transactions", shards, mr.Transactions)
		}
		runs = append(runs, mr)
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[0], runs[i]) {
			t.Errorf("shards=1 vs shards=%d differ under kill/repair schedule\n a: %+v\n b: %+v",
				[]int{1, 2, 4}[i], runs[0], runs[i])
		}
	}
	// Every port ran the same schedule: repairs applied on each.
	for i, r := range runs[0].PerPort {
		if r.Fault.LinksRepaired != 1 || r.Fault.CubesRepaired != 1 || r.Fault.LaneRepairs != 1 {
			t.Errorf("port %d repairs not applied: %+v", i, r.Fault)
		}
	}
}
