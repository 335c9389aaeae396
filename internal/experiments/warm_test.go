package experiments

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestWarmErrorIndependentOfParallel checks Warm reports the earliest
// failing pair at every worker count and caches nothing when a run
// fails.
func TestWarmErrorIndependentOfParallel(t *testing.T) {
	suite := workload.Suite()[:4]
	var cfgs []MNConfig
	for _, kind := range []topology.Kind{topology.Chain, topology.Ring, topology.Tree, topology.SkipList} {
		cfgs = append(cfgs, MNConfig{Topo: kind, DRAMFraction: 1, Placement: config.NVMLast, Arb: arb.RoundRobin})
	}
	early := pair{cfgs[1], suite[2]}
	late := pair{cfgs[3], suite[0]}
	errSim := errors.New("injected")
	fake := func(p core.Params) (core.Results, error) {
		switch {
		case p.Topo == early.cfg.Topo && p.Workload.Name == early.wl.Name:
			time.Sleep(20 * time.Millisecond)
			return core.Results{}, errSim
		case p.Topo == late.cfg.Topo && p.Workload.Name == late.wl.Name:
			return core.Results{}, errSim
		}
		return core.Results{FinishTime: 1}, nil
	}
	want := fmt.Sprintf("%s/%s: injected", early.cfg.Label(), early.wl.Name)
	for _, parallel := range []int{1, 8} {
		r := NewRunner(Options{Transactions: 100, Seed: 1, Parallel: parallel})
		r.Sim = fake
		err := r.Warm(cfgs, suite)
		if err == nil || err.Error() != want || !errors.Is(err, errSim) {
			t.Errorf("Parallel=%d: err = %v, want %s", parallel, err, want)
		}
		if keys := r.sortedKeys(); len(keys) != 0 {
			t.Errorf("Parallel=%d: failed Warm cached %d runs: %v", parallel, len(keys), keys)
		}
	}
}
