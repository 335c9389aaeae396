package core

import (
	"reflect"
	"strings"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

func machineBase(t *testing.T, topo topology.Kind, txns uint64) Params {
	t.Helper()
	var wl workload.Spec
	for _, s := range workload.Suite() {
		if s.Name == "KMEANS" {
			wl = s
		}
	}
	if wl.Name == "" {
		t.Fatal("KMEANS workload missing from suite")
	}
	return Params{
		Sys:          config.Default(),
		Topo:         topo,
		Arb:          arb.RoundRobin,
		Workload:     wl,
		Transactions: txns,
		Seed:         7,
	}
}

// machineWorkers covers the <= 0 clamp, one worker, a count that does
// not divide the eight ports, exactly one worker per port, and more
// workers than ports.
var machineWorkers = []int{0, 1, 3, 8, 9}

// TestMachineShardCountInvariant is the core bit-identity acceptance
// check: a whole-machine run must produce exactly the same
// MachineResults — every per-port field included — at every worker
// count, across every topology family.
func TestMachineShardCountInvariant(t *testing.T) {
	for _, k := range []topology.Kind{topology.Chain, topology.Ring, topology.Tree, topology.SkipList} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			base := machineBase(t, k, 400)
			var ref MachineResults
			for i, workers := range machineWorkers {
				mr, err := RunMachine(MachineParams{Base: base, Shards: workers})
				if err != nil {
					t.Fatalf("shards=%d: %v", workers, err)
				}
				if i == 0 {
					ref = mr
				} else if !reflect.DeepEqual(ref, mr) {
					t.Errorf("shards=%d vs shards=%d results differ\n ref: %+v\n got: %+v",
						machineWorkers[0], workers, ref, mr)
				}
			}
		})
	}
}

// TestMachineBuildErrorIndependentOfWorkers makes every port fail in
// Build (a repair of a link that was never killed) and requires the
// same port-0 error at every worker count: the lowest failing port
// wins, however the pool interleaves the ports.
func TestMachineBuildErrorIndependentOfWorkers(t *testing.T) {
	base := machineBase(t, topology.Ring, 100)
	base.Fault = &fault.Config{RepairLinks: []fault.LinkRepair{{Edge: 2, At: sim.Microsecond}}}
	if _, err := Build(base); err == nil {
		t.Fatal("Build accepted a repair of a link that is not down")
	}
	var want string
	for _, workers := range machineWorkers {
		_, err := RunMachine(MachineParams{Base: base, Shards: workers})
		if err == nil {
			t.Fatalf("shards=%d: RunMachine accepted a schedule Build rejects", workers)
		}
		if want == "" {
			want = err.Error()
			if !strings.HasPrefix(want, "core: machine: port 0: ") {
				t.Fatalf("shards=%d: err = %q, want the port 0 error", workers, want)
			}
		} else if err.Error() != want {
			t.Errorf("shards=%d: err = %q, want %q", workers, err, want)
		}
	}
}

// TestMachinePortZeroMatchesSingleRun pins the seed-derivation contract:
// port 0 keeps the base seed, so its Results must equal a standalone
// single-port Simulate of the same params, bit for bit.
func TestMachinePortZeroMatchesSingleRun(t *testing.T) {
	base := machineBase(t, topology.Ring, 400)
	single, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunMachine(MachineParams{Base: base, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.PerPort) != base.Sys.Ports {
		t.Fatalf("got %d port results, want %d", len(mr.PerPort), base.Sys.Ports)
	}
	if !reflect.DeepEqual(mr.PerPort[0], single) {
		t.Errorf("port 0 drifted from the single-port run\n port0: %+v\nsingle: %+v", mr.PerPort[0], single)
	}
}

// TestMachinePortsDecorrelated checks the other ports run distinct
// traffic: identical per-port results would mean the seed stride is
// dead and the "machine" is eight copies of one simulation.
func TestMachinePortsDecorrelated(t *testing.T) {
	mr, err := RunMachine(MachineParams{Base: machineBase(t, topology.Tree, 400), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(mr.PerPort[0], mr.PerPort[1]) {
		t.Error("ports 0 and 1 produced identical results; per-port seeds are not applied")
	}
	if mr.Fairness <= 0 || mr.Fairness > 1 {
		t.Errorf("Jain fairness = %v, want (0, 1]", mr.Fairness)
	}
	var sum uint64
	for _, r := range mr.PerPort {
		sum += r.Transactions
	}
	if mr.Transactions != sum {
		t.Errorf("aggregate transactions %d != per-port sum %d", mr.Transactions, sum)
	}
}

// TestMachineRejectsUnmergeable pins the validation errors for modes
// whose outputs have no defined cross-port merge.
func TestMachineRejectsUnmergeable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"record", func(p *Params) { p.Record = true }, "Record"},
		{"trace", func(p *Params) { p.TraceDepth = 8 }, "TraceDepth"},
		{"telemetry", func(p *Params) { p.Obs = &obs.Config{Enabled: true} }, "telemetry"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := machineBase(t, topology.Ring, 100)
			c.mut(&p)
			_, err := RunMachine(MachineParams{Base: p, Shards: 1})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}
