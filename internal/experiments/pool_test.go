package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/core"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

func TestForEachRunsEachIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 3, n + 5} {
		counts := make([]atomic.Int32, n)
		if err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	if err := ForEach(4, 0, func(int) error { panic("called") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachLowestErrorWins makes the higher failing index fail first,
// so a first-error-wins pool would report it at any worker count above
// one.
func TestForEachLowestErrorWins(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 2, 8} {
		var ran [n]atomic.Bool
		err := ForEach(workers, n, func(i int) error {
			ran[i].Store(true)
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return fmt.Errorf("index %d", i)
			case 5:
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Errorf("workers=%d: err = %v, want index 3", workers, err)
		}
		for i := 0; i <= 3; i++ {
			if !ran[i].Load() {
				t.Errorf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}
		if workers == 1 {
			for i := 4; i < n; i++ {
				if ran[i].Load() {
					t.Errorf("workers=1: index %d claimed after the failure", i)
				}
			}
		}
	}
}

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
