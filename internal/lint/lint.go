// Package lint assembles mnlint, memnet's determinism and
// packet-ownership linter suite. The analyzers enforce the invariants
// the simulator's bit-identical-replay guarantee rests on, plus the
// repo's documentation policy:
//
//	detmap     no unordered map iteration in simulation packages
//	wallclock  no host clock or global math/rand in simulation packages
//	poolcheck  no use of a *packet.Packet after Pool.Put releases it
//	schedcheck no possibly-negative or float-derived event delays
//	statskey   no fmt-built stat keys or string-keyed counters on hot paths
//	sharedstate no unguarded package-level writes or non-channel
//	           cross-goroutine access in internal/sim and internal/core
//	doccheck   no undocumented exported identifiers in the documented-API
//	           packages (campaign, experiments, obs, fnv)
//	creditflow every flow-credit decrement or delivery-closure packet
//	           reaches a credit sink on all paths (CFG dataflow)
//	fsmcheck   state-field writes follow the //lint:fsm declared
//	           transition relation (branch-refined state masks)
//
// The last two run on the internal/lint/cfg dataflow engine; creditflow
// also exchanges cross-package facts through the shared analysis.Facts
// store, so callee summaries from internal/link and internal/sim are
// visible when internal/core is analyzed.
//
// See DESIGN.md ("Determinism rules" and "Dataflow linting") for the
// rationale and the //lint: annotation escape hatches. cmd/mnlint is
// the driver.
package lint

import (
	"memnet/internal/lint/analysis"
	"memnet/internal/lint/creditflow"
	"memnet/internal/lint/detmap"
	"memnet/internal/lint/doccheck"
	"memnet/internal/lint/fsmcheck"
	"memnet/internal/lint/poolcheck"
	"memnet/internal/lint/schedcheck"
	"memnet/internal/lint/sharedstate"
	"memnet/internal/lint/statskey"
	"memnet/internal/lint/wallclock"
)

// Analyzers returns the full mnlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detmap.Analyzer,
		wallclock.Analyzer,
		poolcheck.Analyzer,
		schedcheck.Analyzer,
		sharedstate.Analyzer,
		statskey.Analyzer,
		doccheck.Analyzer,
		creditflow.Analyzer,
		fsmcheck.Analyzer,
	}
}

// ByName returns the named analyzers, or all of them for an empty list.
// Unknown names are ignored (the driver validates separately).
func ByName(names ...string) []*analysis.Analyzer {
	all := Analyzers()
	if len(names) == 0 {
		return all
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
			}
		}
	}
	return out
}
