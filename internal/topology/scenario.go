package topology

import (
	"errors"
	"fmt"
	"strings"

	"memnet/internal/config"
	"memnet/internal/packet"
	"memnet/internal/scenario"
)

// This file bridges the declarative scenario format to built graphs in
// both directions: BuildScenario turns a validated spec into a *Graph
// (including irregular shapes no built-in kind expresses), and
// ExportScenario renders any built graph as a spec, which the
// round-trip goldens use to prove the format is complete — an exported
// built-in topology must simulate byte-identically to the compiled one.

// KindName returns the canonical lowercase scenario/CLI label for a
// buildable kind ("chain", "skiplist", ...).
func KindName(k Kind) string { return strings.ToLower(k.String()) }

// KindNames returns the canonical labels of every buildable kind, in
// AllKinds order. CLI -topology usage strings and the scenario
// "topology" field accept exactly these.
func KindNames() []string {
	names := make([]string, len(AllKinds))
	for i, k := range AllKinds {
		names[i] = KindName(k)
	}
	return names
}

// ParseKind resolves a topology label (any case) to its Kind.
func ParseKind(label string) (Kind, error) {
	want := strings.ToLower(label)
	for _, k := range AllKinds {
		if want == KindName(k) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("topology: unknown topology %q (%s)",
		label, strings.Join(KindNames(), " | "))
}

// ScenarioKind resolves the kind a scenario run reports: the declared
// built-in kind when the spec names one, Scenario otherwise.
func ScenarioKind(s *scenario.Spec) (Kind, error) {
	if s.Topology == "" {
		return Scenario, nil
	}
	k, err := ParseKind(s.Topology)
	if err != nil {
		return 0, fmt.Errorf("scenario: topology: %w", err)
	}
	return k, nil
}

// BuildScenario constructs the declared component graph. The spec is
// normalized in place (defaults materialized) first; link order fixes
// port numbering and edge indices exactly as the declaration order,
// matching the compiled-in builders' convention.
func BuildScenario(s *scenario.Spec) (*Graph, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	kind, err := ScenarioKind(s)
	if err != nil {
		return nil, err
	}
	b := newBuilder(kind)
	for _, n := range s.Nodes {
		if n.Kind == "iface" {
			b.addNode(Iface, config.DRAM, -1)
			continue
		}
		tech := config.DRAM
		if n.Tech == "nvm" {
			tech = config.NVM
		}
		b.addNode(Cube, tech, *n.Pos)
	}
	for i, l := range s.Links {
		a, ok := s.NodeID(l.A)
		if !ok {
			return nil, fmt.Errorf("scenario: links[%d].a: unknown node %q", i, l.A)
		}
		c, ok := s.NodeID(l.B)
		if !ok {
			return nil, fmt.Errorf("scenario: links[%d].b: unknown node %q", i, l.B)
		}
		b.link(packet.NodeID(a), packet.NodeID(c), l.Express, l.Interposer)
	}
	g, err := b.finish()
	var over *budgetError
	if errors.As(err, &over) && over.node != packet.HostNode {
		i := int(over.node) - 1 // node IDs follow declaration order after the host
		return nil, fmt.Errorf("scenario: nodes[%d] %q: exceeds %d ports (%d)", i, s.Nodes[i].Name, over.limit, over.ports)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return g, nil
}

// ExportScenario renders a built graph as a scenario spec named name.
// Only structure is emitted — node kinds, technologies, positions, and
// edge flags — never per-link overrides, so a run of the export
// inherits the same system-wide defaults as the compiled topology and
// reproduces it byte-for-byte. Cubes export as "c<ID>", interface
// chips as "if<ID>".
func ExportScenario(g *Graph, name string) *scenario.Spec {
	s := &scenario.Spec{Schema: scenario.Schema, Name: name}
	for _, k := range AllKinds {
		if g.Kind == k {
			s.Topology = KindName(k)
		}
	}
	if s.Name == "" {
		base := s.Topology
		if base == "" {
			base = "scenario"
		}
		s.Name = fmt.Sprintf("%s-%d", base, len(g.Nodes)-1)
	}
	nodeName := func(id packet.NodeID) string {
		if id == packet.HostNode {
			return scenario.HostName
		}
		if g.Nodes[id].Kind == Iface {
			return fmt.Sprintf("if%d", id)
		}
		return fmt.Sprintf("c%d", id)
	}
	for _, n := range g.Nodes[1:] {
		ns := scenario.Node{Name: nodeName(n.ID)}
		if n.Kind == Iface {
			ns.Kind = "iface"
		} else {
			ns.Kind = "cube"
			ns.Tech = "dram"
			if n.Tech == config.NVM {
				ns.Tech = "nvm"
			}
			pos := n.Pos
			ns.Pos = &pos
		}
		s.Nodes = append(s.Nodes, ns)
	}
	for _, e := range g.Edges {
		s.Links = append(s.Links, scenario.Link{
			A: nodeName(e.A), B: nodeName(e.B),
			Express: e.Express, Interposer: e.Interposer,
		})
	}
	return s
}
