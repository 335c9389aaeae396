// Package arb implements the router input-arbitration policies studied
// in the paper:
//
//   - RoundRobin: the baseline locally-fair scheme. Because a cube's four
//     local vault queues outnumber its single upstream queue, locally fair
//     selection is globally unfair (the "parking lot problem", §3.2).
//   - Distance: the paper's §4.1 proposal — a weighted round-robin whose
//     weights use a packet's hop distance (read from the header flit) as
//     a proxy for its age.
//   - Augmented distance (§5.3): the distance weight is corrected with
//     knowledge of the source cube's memory technology (NVM responses are
//     older than their distance suggests) and the request type (writes
//     may be further delayed).
//
// All three are expressed as one smooth weighted-round-robin engine with
// different weight functions, so the baseline is exactly the weight-1
// special case.
package arb

import (
	"memnet/internal/packet"
)

// Kind selects an arbitration policy.
type Kind uint8

const (
	// RoundRobin is the locally-fair baseline.
	RoundRobin Kind = iota
	// Distance is the naive distance-as-age scheme of §4.1.
	Distance
	// DistanceAugmented is the §5.3 scheme, aware of memory technology
	// and request type.
	DistanceAugmented
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RoundRobin:
		return "round-robin"
	case Distance:
		return "distance"
	case DistanceAugmented:
		return "distance-augmented"
	default:
		return "arb(?)"
	}
}

// Policy selects which input port an output port serves next. Policies
// are per-router and stateful (they hold the fairness counters).
type Policy interface {
	// Pick chooses one of candidates (input-port indices whose head
	// packet is eligible for this output). heads is indexed by input
	// port; heads[c] is the head packet of candidate c (entries of
	// non-candidates are not read). candidates is non-empty and sorted
	// ascending.
	Pick(out int, vc packet.VC, candidates []int, heads []*packet.Packet) int
}

// WeightFunc computes the arbitration weight of a head packet. Weights
// must be >= 1; larger weights receive proportionally more service.
type WeightFunc func(p *packet.Packet) int64

// TechBias estimates, in weight units, how much older a packet from the
// given node is than its hop distance implies. Used by the augmented
// policy for NVM-sourced responses.
type TechBias func(n packet.NodeID) int64

// Config carries the tuning constants of the distance policies. The
// paper determined these "empirically using both average network hop
// latency and average memory access latency for each cube technology
// type" (§5.3); defaults are derived the same way in core.DefaultArb.
type Config struct {
	// Bias, when non-nil, augments response weights by the source cube's
	// technology latency (in hop-equivalents).
	Bias TechBias
	// WriteDemotion divides the weight of write requests/acks (>=1).
	WriteDemotion int64
}

// New returns a policy of the given kind. cfg may be zero-valued for
// RoundRobin and Distance.
func New(kind Kind, cfg Config) Policy {
	switch kind {
	case RoundRobin:
		return &wrr{weight: func(*packet.Packet) int64 { return 1 }}
	case Distance:
		return &wrr{strict: true, weight: func(p *packet.Packet) int64 {
			return 1 + int64(p.Distance)
		}}
	case DistanceAugmented:
		demote := cfg.WriteDemotion
		if demote < 1 {
			demote = 1
		}
		return &wrr{strict: true, weight: func(p *packet.Packet) int64 {
			w := 1 + int64(p.Distance)
			if cfg.Bias != nil && p.Kind.IsResponse() {
				w += cfg.Bias(p.Src)
			}
			if p.Kind.IsWrite() {
				w = w / demote
				if w < 1 {
					w = 1
				}
			}
			return w
		}}
	default:
		panic("arb: unknown kind")
	}
}

// wrr is a weighted arbiter with two modes. In smooth mode (strict ==
// false) it is a smooth weighted round-robin (nginx-style): each
// contender's running counter grows by its weight every arbitration, the
// largest counter wins and is decremented by the sum of active weights;
// with all weights equal to 1 this degenerates to plain round-robin. In
// strict mode the highest head-packet weight always wins (ties broken by
// rotation) — the paper's distance arbitration favors the
// estimated-oldest packet outright, which is what makes the naive scheme
// misfire on NVM-F placements (§5.1).
// State is kept per (output port, VC) so request and response streams do
// not perturb each other's fairness. It lives in slices indexed by
// out*NumVCs+vc (and then by input port), grown on first use, so a
// steady-state Pick never allocates.
type wrr struct {
	weight WeightFunc
	strict bool
	state  [][]int64
	rot    []int
}

// slot returns the (out, vc) state index.
func slot(out int, vc packet.VC) int { return out*int(packet.NumVCs) + int(vc) }

func (a *wrr) Pick(out int, vc packet.VC, candidates []int, heads []*packet.Packet) int {
	if len(candidates) == 1 {
		return candidates[0]
	}
	key := slot(out, vc)
	if a.strict {
		if key >= len(a.rot) {
			a.rot = append(a.rot, make([]int, key+1-len(a.rot))...)
		}
		rot := a.rot[key]
		best := -1
		var bestVal int64
		for k := 0; k < len(candidates); k++ {
			c := candidates[(rot+k)%len(candidates)]
			w := a.weight(heads[c])
			if best == -1 || w > bestVal {
				best = c
				bestVal = w
			}
		}
		a.rot[key] = rot + 1
		return best
	}
	if key >= len(a.state) {
		a.state = append(a.state, make([][]int64, key+1-len(a.state))...)
	}
	cur := a.state[key]
	if last := candidates[len(candidates)-1]; last >= len(cur) {
		cur = append(cur, make([]int64, last+1-len(cur))...)
		a.state[key] = cur
	}

	var total int64
	best := -1
	var bestVal int64
	for _, c := range candidates {
		w := a.weight(heads[c])
		if w < 1 {
			w = 1
		}
		cur[c] += w
		total += w
		if best == -1 || cur[c] > bestVal {
			best = c
			bestVal = cur[c]
		}
	}
	cur[best] -= total
	return best
}
