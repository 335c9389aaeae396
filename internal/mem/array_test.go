package mem

import (
	"testing"
	"unsafe"

	"memnet/internal/config"
	"memnet/internal/sim"
)

// oracleBank is the self-contained bank model the Array replaced: every
// bank carries its own timing and counters. It is kept verbatim as the
// reference the shared-timing layout must match step for step.
type oracleBank struct {
	timing config.MemTiming
	tech   config.MemTech

	openRow      int64
	dirty        bool
	lastActivate sim.Time
	busy         sim.Resource

	nextRefresh sim.Time

	stats BankStats
}

func newOracleBank(tech config.MemTech, timing config.MemTiming, refreshOffset sim.Time) *oracleBank {
	b := &oracleBank{timing: timing, tech: tech, openRow: -1}
	if timing.RefInterval > 0 {
		b.nextRefresh = refreshOffset % timing.RefInterval
		if b.nextRefresh == 0 {
			b.nextRefresh = timing.RefInterval
		}
	}
	return b
}

func (b *oracleBank) Access(now sim.Time, row int64, kind AccessKind) (done sim.Time) {
	start := now
	if f := b.busy.FreeAt(); f > start {
		start = f
	}
	start = b.applyRefresh(start)

	var lat, background sim.Time
	switch {
	case b.openRow == row:
		b.stats.RowHits++
		lat = b.timing.TCL + b.timing.Burst
	case b.openRow < 0:
		b.stats.RowMisses++
		b.lastActivate = start
		lat = b.timing.TRCD + b.timing.TCL + b.timing.Burst
	default:
		b.stats.RowConflicts++
		if earliest := b.lastActivate + b.timing.TRAS; earliest > start {
			start = earliest
		}
		if b.dirty {
			background = b.timing.TWR
			if idle := start - b.busy.FreeAt(); idle > 0 {
				background -= idle
			}
			if background < 0 {
				background = 0
			}
		}
		b.dirty = false
		b.lastActivate = start + b.timing.TRP
		lat = b.timing.TRP + b.timing.TRCD + b.timing.TCL + b.timing.Burst
	}
	b.openRow = row

	if kind == Write {
		b.stats.Writes++
		b.dirty = true
	} else {
		b.stats.Reads++
	}

	done = start + lat
	b.busy.ReserveAt(start, done-start+background)
	b.stats.BusyTime += done - start + background
	return done
}

func (b *oracleBank) applyRefresh(start sim.Time) sim.Time {
	if b.nextRefresh <= 0 {
		return start
	}
	for b.nextRefresh <= start {
		end := b.nextRefresh + b.timing.RefDuration
		if end > start {
			start = end
		}
		b.nextRefresh += b.timing.RefInterval
		b.stats.Refreshes++
		b.openRow = -1
	}
	return start
}

// TestArrayMatchesBankOracle drives a 64-bank Array, 64 single Banks and
// 64 oracle banks through the same random access streams — DRAM with
// staggered refresh and NVM, arrivals both queued behind a busy bank and
// after long idle gaps — and requires identical done times, FreeAt and
// OpenRow on every step and identical counters at every step.
func TestArrayMatchesBankOracle(t *testing.T) {
	const banks, steps = 64, 200_000
	const stagger = 97 * sim.Nanosecond
	sys := config.Default()
	for _, tech := range []config.MemTech{config.DRAM, config.NVM} {
		t.Run(tech.String(), func(t *testing.T) {
			tm := sys.Timing(tech)
			arr := MakeArray(tech, tm, banks, 3*banks*stagger, stagger)
			single := make([]*Bank, banks)
			ref := make([]*oracleBank, banks)
			for i := range ref {
				off := sim.Time(3*banks+i) * stagger
				single[i] = NewBank(tech, tm, off)
				ref[i] = newOracleBank(tech, tm, off)
			}
			rng := sim.NewRand(uint64(tech) + 11)
			var now sim.Time
			var dirtyEvictions int
			for n := 0; n < steps; n++ {
				switch r := rng.Intn(100); {
				case r < 80: // back to back: queues behind busy banks
					now += sim.Time(rng.Intn(20)) * sim.Nanosecond
				case r < 98: // past an NVM cell write
					now += sim.Time(rng.Intn(400)) * sim.Nanosecond
				default: // past a refresh interval
					now += sim.Time(rng.Intn(12_000)) * sim.Nanosecond
				}
				i := rng.Intn(banks)
				row := int64(rng.Intn(4))
				kind := Read
				if rng.Intn(3) == 0 {
					kind = Write
				}
				if o := ref[i]; o.dirty && o.openRow >= 0 && o.openRow != row {
					dirtyEvictions++
				}
				want := ref[i].Access(now, row, kind)
				if got := arr.Access(i, now, row, kind); got != want {
					t.Fatalf("step %d bank %d: Array done %v, oracle %v", n, i, got, want)
				}
				if got := single[i].Access(now, row, kind); got != want {
					t.Fatalf("step %d bank %d: Bank done %v, oracle %v", n, i, got, want)
				}
				if arr.FreeAt(i) != ref[i].busy.FreeAt() || single[i].FreeAt() != ref[i].busy.FreeAt() {
					t.Fatalf("step %d bank %d: FreeAt %v/%v, oracle %v",
						n, i, arr.FreeAt(i), single[i].FreeAt(), ref[i].busy.FreeAt())
				}
				if arr.OpenRow(i) != ref[i].openRow || single[i].OpenRow() != ref[i].openRow {
					t.Fatalf("step %d bank %d: OpenRow %d/%d, oracle %d",
						n, i, arr.OpenRow(i), single[i].OpenRow(), ref[i].openRow)
				}
				if single[i].Stats() != ref[i].stats {
					t.Fatalf("step %d bank %d: Bank stats %+v, oracle %+v",
						n, i, single[i].Stats(), ref[i].stats)
				}
				if sum := sumStats(ref); arr.Stats() != sum {
					t.Fatalf("step %d: Array stats %+v, oracle sum %+v", n, arr.Stats(), sum)
				}
			}
			s := arr.Stats()
			if s.RowHits == 0 || s.RowMisses == 0 || s.RowConflicts == 0 || dirtyEvictions == 0 {
				t.Fatalf("stream missed a case: %+v, %d dirty evictions", s, dirtyEvictions)
			}
			if (tm.RefInterval > 0) != (s.Refreshes > 0) {
				t.Fatalf("refreshes %d with interval %v", s.Refreshes, tm.RefInterval)
			}
		})
	}
}

func sumStats(banks []*oracleBank) BankStats {
	var s BankStats
	for _, b := range banks {
		s.Reads += b.stats.Reads
		s.Writes += b.stats.Writes
		s.RowHits += b.stats.RowHits
		s.RowMisses += b.stats.RowMisses
		s.RowConflicts += b.stats.RowConflicts
		s.Refreshes += b.stats.Refreshes
		s.BusyTime += b.stats.BusyTime
	}
	return s
}

// TestBankStateSize pins the per-bank heap cost of an Array: timing,
// technology and counters are shared, so a bank is its dynamic state.
func TestBankStateSize(t *testing.T) {
	if n := unsafe.Sizeof(state{}); n > 40 {
		t.Fatalf("per-bank state is %d bytes, budget 40", n)
	}
}

// TestAllocFreeBankAccess requires the Array access path to allocate
// nothing.
func TestAllocFreeBankAccess(t *testing.T) {
	sys := config.Default()
	arr := MakeArray(config.DRAM, sys.Timing(config.DRAM), 64, 0, 97*sim.Nanosecond)
	var now sim.Time
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		kind := Read
		if n%4 == 3 {
			kind = Write
		}
		now = arr.Access(n%64, now, int64(n%7), kind)
	})
	if allocs != 0 {
		t.Fatalf("Array.Access allocates %v per call, want 0", allocs)
	}
}
