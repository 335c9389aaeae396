// Package mem implements the bank-level memory array timing model shared
// by DRAM and NVM cubes. Each bank has a single row buffer (open-page
// policy), serially-reusable data path, activate/precharge timing
// constraints, and — for DRAM — periodic refresh. The model answers one
// question per access: given an arrival time, when is the access done and
// until when is the bank busy?
package mem

import (
	"memnet/internal/config"
	"memnet/internal/sim"
)

// AccessKind distinguishes reads from writes at the array level.
type AccessKind uint8

const (
	// Read fetches one 64B block.
	Read AccessKind = iota
	// Write stores one 64B block; for NVM the cell-write occupancy (tWR)
	// dominates and keeps the bank busy long after the command issues.
	Write
)

// BankStats aggregates bank counters used by the latency and energy
// reports: one Bank's, or an Array's summed over its banks.
type BankStats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // closed-row activates
	RowConflicts uint64 // precharge-then-activate
	Refreshes    uint64
	// BusyTime accumulates bank data-path occupancy, for utilization
	// accounting.
	BusyTime sim.Time
}

// state is one bank's dynamic state: everything that differs between
// the banks of an Array. The timing, technology and counters are shared
// by the owner, so a bank costs 40 bytes.
type state struct {
	openRow      int64 // -1 = closed (precharged)
	lastActivate sim.Time
	busy         sim.Resource
	nextRefresh  sim.Time // 0 disabled
	dirty        bool     // open row has unwritten-back modifications
}

// initState returns a precharged bank whose first refresh is staggered
// by refreshOffset (ignored when timing has no refresh).
func initState(timing *config.MemTiming, refreshOffset sim.Time) state {
	s := state{openRow: -1}
	if timing.RefInterval > 0 {
		s.nextRefresh = refreshOffset % timing.RefInterval
		if s.nextRefresh == 0 {
			s.nextRefresh = timing.RefInterval
		}
	}
	return s
}

// Bank models one independent memory bank with its own timing and
// counters.
type Bank struct {
	state
	timing config.MemTiming
	tech   config.MemTech
	stats  BankStats
}

// NewBank returns a bank of the given technology. refreshOffset staggers
// the bank's refresh phase so that banks of a cube do not refresh in
// lockstep; it is ignored for technologies without refresh.
func NewBank(tech config.MemTech, timing config.MemTiming, refreshOffset sim.Time) *Bank {
	return &Bank{state: initState(&timing, refreshOffset), timing: timing, tech: tech}
}

// Tech reports the bank's memory technology.
func (b *Bank) Tech() config.MemTech { return b.tech }

// Stats returns a copy of the bank's counters.
func (b *Bank) Stats() BankStats { return b.stats }

// OpenRow reports the currently open row, or -1 if the bank is
// precharged. Exposed for tests and the topology inspector.
func (b *Bank) OpenRow() int64 { return b.openRow }

// FreeAt reports when the bank's data path next becomes free.
func (b *Bank) FreeAt() sim.Time { return b.busy.FreeAt() }

// Access performs a read or write of the given row arriving at time now.
// It returns done, the time at which the access completes (data available
// for a read; write committed — and therefore acknowledgeable — for a
// write). The bank's data path is reserved internally, so back-to-back
// calls naturally queue.
func (b *Bank) Access(now sim.Time, row int64, kind AccessKind) (done sim.Time) {
	return b.access(&b.timing, &b.stats, now, row, kind)
}

// Array is a set of banks of one technology sharing one timing and one
// set of counters, stored contiguously: the layout of a vault quadrant
// or a DDR channel. Each bank holds only its dynamic state.
type Array struct {
	timing config.MemTiming
	tech   config.MemTech
	stats  BankStats
	banks  []state
}

// MakeArray returns n precharged banks. Bank i's refresh phase is
// staggered by firstOffset + i*stride so that banks do not refresh in
// lockstep; offsets are ignored for technologies without refresh.
func MakeArray(tech config.MemTech, timing config.MemTiming, n int, firstOffset, stride sim.Time) Array {
	a := Array{timing: timing, tech: tech, banks: make([]state, n)}
	for i := range a.banks {
		a.banks[i] = initState(&a.timing, firstOffset+sim.Time(i)*stride)
	}
	return a
}

// Len reports the number of banks.
func (a *Array) Len() int { return len(a.banks) }

// Tech reports the array's memory technology.
func (a *Array) Tech() config.MemTech { return a.tech }

// Stats returns a copy of the counters summed over every bank.
func (a *Array) Stats() BankStats { return a.stats }

// OpenRow reports bank i's open row, or -1 if it is precharged.
func (a *Array) OpenRow(i int) int64 { return a.banks[i].openRow }

// FreeAt reports when bank i's data path next becomes free.
func (a *Array) FreeAt(i int) sim.Time { return a.banks[i].busy.FreeAt() }

// Access performs a read or write of the given row of bank i arriving at
// time now, with the same contract as Bank.Access.
func (a *Array) Access(i int, now sim.Time, row int64, kind AccessKind) (done sim.Time) {
	return a.banks[i].access(&a.timing, &a.stats, now, row, kind)
}

// access is the bank timing model behind Bank.Access and Array.Access:
// it runs one access against this bank's state, under timing t, and
// charges counters st.
func (b *state) access(t *config.MemTiming, st *BankStats, now sim.Time, row int64, kind AccessKind) (done sim.Time) {
	start := now
	if f := b.busy.FreeAt(); f > start {
		start = f
	}
	start = b.applyRefresh(t, st, start)

	var lat, background sim.Time
	switch {
	case b.openRow == row:
		st.RowHits++
		lat = t.TCL + t.Burst
	case b.openRow < 0:
		st.RowMisses++
		b.lastActivate = start
		lat = t.TRCD + t.TCL + t.Burst
	default:
		st.RowConflicts++
		// Precharge may not begin before tRAS has elapsed since the
		// previous activate.
		if earliest := b.lastActivate + t.TRAS; earliest > start {
			start = earliest
		}
		// Evicting a dirty row requires committing its modified data to
		// the array — for PCM this is where the expensive cell-write
		// pulse (tWR = 320 ns) lands (decoupled sensing/buffering,
		// §2.4). The controller write-pauses in favor of demand
		// accesses: the eviction drains in the background after the new
		// activation, so it does not lengthen this access but occupies
		// the bank afterwards, throttling write bursts to one bank at
		// one row writeback per tWR. Idle time already spent cleaning
		// the row eagerly is credited.
		if b.dirty {
			background = t.TWR
			if idle := start - b.busy.FreeAt(); idle > 0 {
				background -= idle
			}
			if background < 0 {
				background = 0
			}
		}
		b.dirty = false
		b.lastActivate = start + t.TRP
		lat = t.TRP + t.TRCD + t.TCL + t.Burst
	}
	b.openRow = row

	if kind == Write {
		st.Writes++
		b.dirty = true
	} else {
		st.Reads++
	}

	done = start + lat
	b.busy.ReserveAt(start, done-start+background)
	st.BusyTime += done - start + background
	return done
}

// applyRefresh advances start past any refresh windows that are due, and
// schedules subsequent windows. Refresh is modeled per-bank: every
// RefInterval the bank is unavailable for RefDuration.
func (b *state) applyRefresh(t *config.MemTiming, st *BankStats, start sim.Time) sim.Time {
	if b.nextRefresh <= 0 {
		return start
	}
	for b.nextRefresh <= start {
		end := b.nextRefresh + t.RefDuration
		if end > start {
			start = end
		}
		b.nextRefresh += t.RefInterval
		st.Refreshes++
		// Refresh closes the row.
		b.openRow = -1
	}
	return start
}
