package topology

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/scenario"
)

// twoPodSpec declares an irregular graph no built-in kind expresses:
// two 4-cube rings bridged through a middle cube, host on pod A.
func twoPodSpec() *scenario.Spec {
	node := func(name string) scenario.Node { return scenario.Node{Name: name} }
	link := func(a, b string) scenario.Link { return scenario.Link{A: a, B: b} }
	return &scenario.Spec{
		Schema: scenario.Schema,
		Name:   "two-pod",
		Nodes: []scenario.Node{
			node("a0"), node("a1"), node("a2"), node("a3"),
			node("x"),
			node("b0"), node("b1"), node("b2"), node("b3"),
		},
		Links: []scenario.Link{
			link("host", "a0"),
			link("a0", "a1"), link("a1", "a2"), link("a2", "a3"), link("a3", "a0"),
			link("a0", "x"), link("x", "b0"),
			link("b0", "b1"), link("b1", "b2"), link("b2", "b3"), link("b3", "b0"),
		},
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	names := KindNames()
	if len(names) != len(AllKinds) {
		t.Fatalf("KindNames has %d entries for %d kinds", len(names), len(AllKinds))
	}
	for i, k := range AllKinds {
		if k == Scenario {
			t.Fatalf("AllKinds contains Scenario")
		}
		if names[i] != KindName(k) {
			t.Errorf("KindNames[%d] = %q, want %q", i, names[i], KindName(k))
		}
		for _, label := range []string{KindName(k), strings.ToUpper(KindName(k)), k.String()} {
			got, err := ParseKind(label)
			if err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", label, got, err, k)
			}
		}
		if k.Letter() == "?" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("%v has no name/letter", k)
		}
	}
	for _, bad := range []string{"", "torus", "scenario"} {
		if _, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) accepted", bad)
		}
	}
}

func TestBuildRejectsScenarioKind(t *testing.T) {
	if _, err := Build(Scenario, dram(4)); err == nil {
		t.Fatal("Build(Scenario, ...) must fail; scenarios build via BuildScenario")
	}
}

func TestBuildScenarioIrregular(t *testing.T) {
	g, err := BuildScenario(twoPodSpec())
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != Scenario {
		t.Errorf("kind = %v, want Scenario", g.Kind)
	}
	if got := len(g.Nodes); got != 10 {
		t.Fatalf("nodes = %d, want 10", got)
	}
	if got := len(g.Edges); got != 11 {
		t.Fatalf("edges = %d, want 11", got)
	}
	// Route tables must reach every cube from the host on both classes.
	for _, id := range g.CubeIDs() {
		for _, class := range []PathClass{PathShort, PathLong} {
			if g.Dist(class, packet.HostNode, id) < 0 {
				t.Errorf("no %v route host -> %d", class, id)
			}
		}
	}
	// Pod B is two hops behind the bridge: host-a0-x-b0.
	b0, _ := twoPodSpec().NodeID("b0")
	if d := g.Dist(PathShort, packet.HostNode, packet.NodeID(b0)); d != 3 {
		t.Errorf("host->b0 dist = %d, want 3", d)
	}
}

func TestBuildScenarioRejects(t *testing.T) {
	// Port budget: a 5-link cube must be rejected by the builder even
	// though the spec-level checks cannot know the per-cube budget rule
	// ahead of graph construction.
	s := twoPodSpec()
	s.Links = append(s.Links, scenario.Link{A: "a0", B: "b2"})
	if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), `nodes[0] "a0": exceeds 4 ports (5)`) {
		t.Fatalf("over-budget cube not rejected: %v", err)
	}
	// Router port budget: an interface hub linking the host and 130
	// cubes has more ports than an int8 port index can name.
	s = &scenario.Spec{Schema: scenario.Schema, Name: "hub",
		Nodes: []scenario.Node{{Name: "hub", Kind: "iface"}},
		Links: []scenario.Link{{A: "host", B: "hub"}}}
	for i := 0; i < 130; i++ {
		c := fmt.Sprintf("c%d", i)
		s.Nodes = append(s.Nodes, scenario.Node{Name: c})
		s.Links = append(s.Links, scenario.Link{A: "hub", B: c})
	}
	if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), `scenario: nodes[0] "hub": exceeds 128 ports (131)`) {
		t.Fatalf("131-port hub not rejected: %v", err)
	}
	// Spec-level validation errors surface through BuildScenario too.
	s = twoPodSpec()
	s.Links[0].B = "zz"
	if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), "links[0].b") {
		t.Fatalf("unknown endpoint not rejected: %v", err)
	}
	s = twoPodSpec()
	s.Topology = "torus"
	if _, err := BuildScenario(s); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Fatalf("unknown topology label not rejected: %v", err)
	}
}

// TestExportScenarioRoundTrip checks that exporting any built-in
// topology and rebuilding it from the spec reproduces the graph
// exactly: same nodes, same edges in the same order (port numbering),
// same routes.
func TestExportScenarioRoundTrip(t *testing.T) {
	for _, kind := range AllKinds {
		g := build(t, kind, dram(16))
		spec := ExportScenario(g, "roundtrip")
		if spec.Topology != KindName(kind) {
			t.Errorf("%v: exported topology label %q", kind, spec.Topology)
		}
		g2, err := BuildScenario(spec)
		if err != nil {
			t.Fatalf("%v: rebuild: %v", kind, err)
		}
		if g2.Kind != kind {
			t.Errorf("%v: rebuilt kind %v", kind, g2.Kind)
		}
		if !reflect.DeepEqual(g.Nodes, g2.Nodes) {
			t.Errorf("%v: nodes differ\n%+v\n%+v", kind, g.Nodes, g2.Nodes)
		}
		if !reflect.DeepEqual(g.Edges, g2.Edges) {
			t.Errorf("%v: edges differ\n%+v\n%+v", kind, g.Edges, g2.Edges)
		}
	}
}

// TestExportScenarioValidates checks an export is a valid scenario
// document after a JSON round trip, not just as in-memory structs.
func TestExportScenarioValidates(t *testing.T) {
	g := build(t, MetaCube, dram(16))
	spec := ExportScenario(g, "mc16")
	data := spec.Canonical()
	if _, err := scenario.Decode(data); err != nil {
		t.Fatalf("exported scenario does not decode: %v", err)
	}
}
