package core

import (
	"runtime"
	"testing"

	"memnet/internal/arb"
	"memnet/internal/config"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// buildCost reports the heap allocations and bytes of one Build of p,
// the least over a few builds so a stray background allocation does not
// count.
func buildCost(t *testing.T, p Params) (allocs, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Build(p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		a, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if i == 0 || a < allocs {
			allocs = a
		}
		if i == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// TestBuildBytesBudget caps the set-up cost of one Build for two
// systems: the proposed skip list, all DRAM, and a 50%-NVM MetaCube.
// The recorded figures are from go1.24 on linux/amd64; a build may
// exceed them by buildBudgetSlack. Bank state is most of these bytes:
// with a 168-byte mem.Bank per bank instead of one shared-timing
// mem.Array per quadrant, the two builds took 853,880 and 537,392 bytes.
func TestBuildBytesBudget(t *testing.T) {
	const buildBudgetSlack = 1.10
	wl, err := workload.ByName("BUFF")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		p             Params
		allocs, bytes uint64 // recorded
	}{
		{"skiplist-dram", testParams(topology.SkipList, 1.0, config.NVMLast, arb.RoundRobin, wl), 2259, 337_784},
		{"metacube-50nvm", testParams(topology.MetaCube, 0.5, config.NVMLast, arb.RoundRobin, wl), 1402, 214_832},
	} {
		allocs, bytes := buildCost(t, c.p)
		t.Logf("%s: %d allocs, %d bytes (recorded %d, %d)", c.name, allocs, bytes, c.allocs, c.bytes)
		if float64(allocs) > float64(c.allocs)*buildBudgetSlack {
			t.Errorf("%s: Build made %d allocations, budget %d +%.0f%%",
				c.name, allocs, c.allocs, (buildBudgetSlack-1)*100)
		}
		if float64(bytes) > float64(c.bytes)*buildBudgetSlack {
			t.Errorf("%s: Build allocated %d bytes, budget %d +%.0f%%",
				c.name, bytes, c.bytes, (buildBudgetSlack-1)*100)
		}
	}
}
