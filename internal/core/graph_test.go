package core

import (
	"reflect"
	"strings"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestGraphRejectsBadFailLinks: an edge list that names an edge twice or
// one the topology lacks is a caller mistake, reported at the offending
// list position by Graph and Build alike, never silently shifted onto a
// neighbouring link.
func TestGraphRejectsBadFailLinks(t *testing.T) {
	wl, err := workload.ByName("BUFF")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		topo topology.Kind
		fail []int
		want string
	}{
		{topology.Ring, []int{2, 2}, "core: FailLinks[1]: duplicate edge 2"},
		{topology.Mesh, []int{5, 2, 5}, "core: FailLinks[2]: duplicate edge 5"},
		{topology.SkipList, []int{99}, "core: FailLinks[0]: no edge 99 (SkipList has"},
		{topology.Ring, []int{1, -1}, "core: FailLinks[1]: no edge -1 (Ring has 17 edges)"},
		{topology.Chain, []int{3}, "core: FailLinks: topology: removing link 3 (3-4) disconnects the network"},
		{topology.Mesh, []int{5, 7}, "core: FailLinks: topology: removing link 5 (4-7), 7 (7-11) disconnects the network"},
	} {
		p := testParams(c.topo, 1.0, config.NVMLast, arb.RoundRobin, wl)
		p.FailLinks = c.fail
		_, gerr := Graph(p)
		_, berr := Build(p)
		for name, err := range map[string]error{"Graph": gerr, "Build": berr} {
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("%v FailLinks %v: %s error %v, want prefix %q", c.topo, c.fail, name, err, c.want)
			}
		}
	}
}

// TestGraphRejectsNegativeMetaCubeGroup: zero means the default group of
// four and a negative group is an error, whatever the topology, from
// Graph and Build alike.
func TestGraphRejectsNegativeMetaCubeGroup(t *testing.T) {
	wl, err := workload.ByName("BUFF")
	if err != nil {
		t.Fatal(err)
	}
	const want = "core: Tuning.MetaCubeGroup: negative group -1"
	for _, topo := range []topology.Kind{topology.MetaCube, topology.SkipList} {
		p := testParams(topo, 1.0, config.NVMLast, arb.RoundRobin, wl)
		p.Tuning = DefaultTuning()
		p.Tuning.MetaCubeGroup = 0
		g0, err := Graph(p)
		if err != nil {
			t.Fatal(err)
		}
		p.Tuning.MetaCubeGroup = 4
		g4, err := Graph(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g0.Edges, g4.Edges) {
			t.Errorf("%v: group 0 does not build the default group of 4", topo)
		}
		p.Tuning.MetaCubeGroup = -1
		if _, err := Graph(p); err == nil || err.Error() != want {
			t.Errorf("%v: Graph error %v, want %q", topo, err, want)
		}
		if _, err := Build(p); err == nil || err.Error() != want {
			t.Errorf("%v: Build error %v, want %q", topo, err, want)
		}
	}
}

// TestGraphIsBuildGraph: the graph Graph returns is the one Build wires,
// edge for edge, with FailLinks removed in list order independent of how
// the list is ordered.
func TestGraphIsBuildGraph(t *testing.T) {
	wl, err := workload.ByName("BUFF")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(topology.Mesh, 0.5, config.NVMFirst, arb.RoundRobin, wl)
	p.FailLinks = []int{5, 2}
	g, err := Graph(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Nodes, in.Graph.Nodes) || !reflect.DeepEqual(g.Edges, in.Graph.Edges) {
		t.Fatal("Graph and Build disagree on the run's graph")
	}
	p.FailLinks = []int{2, 5}
	sorted, err := Graph(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges, sorted.Edges) {
		t.Fatal("FailLinks order changed the graph")
	}
	p.FailLinks = nil
	whole, err := Graph(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Edges) != len(g.Edges)+2 {
		t.Fatalf("cut removed %d edges, want 2", len(whole.Edges)-len(g.Edges))
	}
}
