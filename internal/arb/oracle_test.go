package arb

import (
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// refWRR is the original map-keyed weighted arbiter, kept as the oracle
// for the slice-indexed state of wrr: the same weight function and mode,
// with per-(out, vc) counters in maps and heads read through a closure.
type refWRR struct {
	weight WeightFunc
	strict bool
	state  map[refKey]map[int]int64
	rot    map[refKey]int
}

type refKey struct {
	out int
	vc  packet.VC
}

func (a *refWRR) Pick(out int, vc packet.VC, candidates []int, head func(int) *packet.Packet) int {
	if len(candidates) == 1 {
		return candidates[0]
	}
	key := refKey{out: out, vc: vc}
	if a.strict {
		if a.rot == nil {
			a.rot = make(map[refKey]int)
		}
		rot := a.rot[key]
		best := -1
		var bestVal int64
		for k := 0; k < len(candidates); k++ {
			c := candidates[(rot+k)%len(candidates)]
			w := a.weight(head(c))
			if best == -1 || w > bestVal {
				best = c
				bestVal = w
			}
		}
		a.rot[key] = rot + 1
		return best
	}
	if a.state == nil {
		a.state = make(map[refKey]map[int]int64)
	}
	cur := a.state[key]
	if cur == nil {
		cur = make(map[int]int64)
		a.state[key] = cur
	}
	var total int64
	best := -1
	var bestVal int64
	for _, c := range candidates {
		w := a.weight(head(c))
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

// TestPickMatchesMapOracle drives every policy kind and the map-keyed
// oracle through the same random Pick sequences — any output of a
// 16-port router, both VCs, candidate sets from single ports to sparse
// high pairs such as {3, 15} at output 15 — and requires identical
// picks throughout.
func TestPickMatchesMapOracle(t *testing.T) {
	const ports, picks = 16, 20000
	cfg := Config{WriteDemotion: 3, Bias: func(n packet.NodeID) int64 { return int64(n % 4) }}
	kinds := []packet.Kind{
		packet.ReadReq, packet.WriteReq, packet.ReadResp, packet.WriteAck,
	}
	for _, kind := range []Kind{RoundRobin, Distance, DistanceAugmented} {
		got := New(kind, cfg)
		w := got.(*wrr)
		ref := &refWRR{weight: w.weight, strict: w.strict}
		rng := sim.NewRand(uint64(kind) + 1)
		heads := make([]*packet.Packet, ports)
		var cands []int
		for n := 0; n < picks; n++ {
			out := rng.Intn(ports)
			vc := packet.VC(rng.Intn(int(packet.NumVCs)))
			cands = cands[:0]
			switch n % 4 {
			case 0: // sparse and high
				cands = append(cands, 3, ports-1)
				out = ports - 1
			case 1: // one port
				cands = append(cands, rng.Intn(ports))
			default: // a random subset
				for c := 0; c < ports; c++ {
					if rng.Intn(3) == 0 {
						cands = append(cands, c)
					}
				}
				if len(cands) == 0 {
					cands = append(cands, rng.Intn(ports))
				}
			}
			for c := range heads {
				heads[c] = &packet.Packet{Kind: kinds[rng.Intn(len(kinds))],
					Src: packet.NodeID(rng.Intn(8)), Distance: rng.Intn(12)}
			}
			want := ref.Pick(out, vc, cands, func(c int) *packet.Packet { return heads[c] })
			if g := got.Pick(out, vc, cands, heads); g != want {
				t.Fatalf("%v pick %d (out %d, %v, candidates %v): got %d, oracle %d",
					kind, n, out, vc, cands, g, want)
			}
		}
	}
}
