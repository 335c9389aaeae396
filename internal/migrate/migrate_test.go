package migrate

import (
	"testing"

	"memnet/internal/config"
	"memnet/internal/energy"
	"memnet/internal/sim"
)

// fixedTech maps physical addresses below split to DRAM and the rest to
// NVM, emulating a placement where the low region is fast.
func fixedTech(split uint64) func(uint64) config.MemTech {
	return func(a uint64) config.MemTech {
		if a < split {
			return config.DRAM
		}
		return config.NVM
	}
}

func newTestManager(t *testing.T) (*sim.Engine, *Manager, *energy.Meter) {
	t.Helper()
	eng := sim.NewEngine()
	meter := energy.NewMeter(config.Default().Energy)
	cfg := Config{
		Epoch:            1 * sim.Microsecond,
		HotThreshold:     3,
		MaxSwapsPerEpoch: 8,
		BlockBytes:       256,
		Blackout:         200 * sim.Nanosecond,
	}
	m := New(eng, cfg, fixedTech(1<<20), meter)
	return eng, m, meter
}

// runTo runs eng until a marker event scheduled now for time t fires:
// every event before t, and those at t scheduled before the marker.
func runTo(eng *sim.Engine, t sim.Time) {
	reached := false
	eng.At(t, func() { reached = true })
	eng.RunWhile(func() bool { return !reached })
}

func TestIdentityBeforeMigration(t *testing.T) {
	_, m, _ := newTestManager(t)
	for _, a := range []uint64{0, 255, 1 << 21, 1<<21 + 100} {
		if m.Translate(a) != a {
			t.Fatalf("fresh manager translated %#x", a)
		}
	}
	if m.ReadyAt(0) != 0 {
		t.Fatal("fresh blocks must be ready")
	}
}

func TestHotNVMBlockMigrates(t *testing.T) {
	eng, m, meter := newTestManager(t)
	hot := uint64(1<<21 + 512) // NVM-resident block
	cold := uint64(4096)       // DRAM-resident block
	// One access makes the cold DRAM block a victim candidate; repeated
	// accesses make the NVM block hot.
	m.Observe(cold)
	for i := 0; i < 5; i++ {
		m.Observe(hot)
	}
	runTo(eng, 1100*sim.Nanosecond) // cross the epoch boundary

	if m.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", m.Stats().Swaps)
	}
	// The hot block now resolves into the DRAM region and vice versa.
	hotBlk := hot &^ 255
	coldBlk := cold &^ 255
	if got := m.Translate(hotBlk); got != coldBlk {
		t.Fatalf("hot block maps to %#x, want %#x", got, coldBlk)
	}
	if got := m.Translate(coldBlk); got != hotBlk {
		t.Fatalf("cold block maps to %#x, want %#x", got, hotBlk)
	}
	// Offsets within the block are preserved.
	if got := m.Translate(hot); got != coldBlk+512-256 && got != coldBlk+(hot-hotBlk) {
		t.Fatalf("offset not preserved: %#x", got)
	}
	// Both blocks are blacked out until the copy drains.
	if m.ReadyAt(hot) == 0 || m.ReadyAt(cold) == 0 {
		t.Fatal("swapped blocks should be blacked out")
	}
	// Copy energy was charged (2 reads + 2 writes of one block).
	if meter.Report().TotalPJ() == 0 {
		t.Fatal("no copy energy charged")
	}
	if m.RemapSize() != 2 {
		t.Fatalf("remap size %d, want 2", m.RemapSize())
	}
}

func TestColdNVMBlockStays(t *testing.T) {
	eng, m, _ := newTestManager(t)
	m.Observe(4096) // victim candidate
	m.Observe(1 << 21)
	m.Observe(1 << 21) // only 2 accesses: below threshold
	runTo(eng, 1100*sim.Nanosecond)
	if m.Stats().Swaps != 0 {
		t.Fatal("cold block migrated")
	}
}

func TestHotDRAMBlockStays(t *testing.T) {
	eng, m, _ := newTestManager(t)
	for i := 0; i < 10; i++ {
		m.Observe(0) // hot but already on DRAM
	}
	runTo(eng, 1100*sim.Nanosecond)
	if m.Stats().Swaps != 0 {
		t.Fatal("DRAM-resident block migrated")
	}
}

func TestHotVictimIsSpared(t *testing.T) {
	eng, m, _ := newTestManager(t)
	victim := uint64(4096)
	m.Observe(victim)
	for i := 0; i < 5; i++ {
		m.Observe(victim) // the candidate gets hot itself
		m.Observe(1 << 21)
	}
	runTo(eng, 1100*sim.Nanosecond)
	if m.Translate(victim) != victim {
		t.Fatal("hot DRAM block was evicted")
	}
}

func TestBlackoutExpires(t *testing.T) {
	eng, m, _ := newTestManager(t)
	m.Observe(4096)
	for i := 0; i < 5; i++ {
		m.Observe(1 << 21)
	}
	runTo(eng, 1100*sim.Nanosecond)
	if m.ReadyAt(1<<21) == 0 {
		t.Fatal("expected blackout")
	}
	runTo(eng, 1500*sim.Nanosecond)
	if m.ReadyAt(1<<21) != 0 {
		t.Fatal("blackout should have expired")
	}
}

func TestSwapBudget(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		Epoch: sim.Microsecond, HotThreshold: 2,
		MaxSwapsPerEpoch: 3, BlockBytes: 256, Blackout: 100,
	}
	m := New(eng, cfg, fixedTech(1<<20), nil)
	// 8 hot NVM blocks, 8 victims; only 3 may move.
	for i := 0; i < 8; i++ {
		m.Observe(uint64(i) * 256) // victims
		hot := uint64(1<<21) + uint64(i)*256
		for j := 0; j < 3; j++ {
			m.Observe(hot)
		}
	}
	runTo(eng, 1100*sim.Nanosecond)
	if m.Stats().Swaps != 3 {
		t.Fatalf("swaps = %d, want 3 (budget)", m.Stats().Swaps)
	}
}

func TestEpochsRearm(t *testing.T) {
	eng, m, _ := newTestManager(t)
	runTo(eng, 5500*sim.Nanosecond)
	if m.Stats().Epochs != 5 {
		t.Fatalf("epochs = %d, want 5", m.Stats().Epochs)
	}
}

// TestSwapChainsStayBijective forces chained swaps (A<->B then B<->C)
// and checks the table remains a permutation: no aliasing, no leaks.
func TestSwapChainsStayBijective(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		Epoch: sim.Microsecond, HotThreshold: 2,
		MaxSwapsPerEpoch: 4, BlockBytes: 256,
		Blackout: 1, SettleEpochs: 0, // allow immediate re-migration
	}
	m := New(eng, cfg, fixedTech(1<<20), nil)

	// Epoch 1: hot NVM block H swaps with cold DRAM victim V1.
	h := uint64(1<<21 + 0)
	v1 := uint64(0)
	m.Observe(v1)
	m.Observe(h)
	m.Observe(h)
	runTo(eng, 1100*sim.Nanosecond)
	if m.Stats().Swaps != 1 {
		t.Fatalf("epoch1 swaps = %d", m.Stats().Swaps)
	}
	// Epoch 2: V1 (now resolving to NVM) becomes hot itself and swaps
	// with a fresh DRAM victim V2 — a chain through H's old frame.
	v2 := uint64(4096)
	m.Observe(v2)
	m.Observe(v1)
	m.Observe(v1)
	runTo(eng, 2100*sim.Nanosecond)
	if m.Stats().Swaps != 2 {
		t.Fatalf("epoch2 swaps = %d", m.Stats().Swaps)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// All three logical blocks resolve to distinct physical frames.
	seen := map[uint64]bool{}
	for _, blk := range []uint64{h, v1, v2} {
		p := m.Translate(blk)
		if seen[p] {
			t.Fatalf("aliasing at %#x", p)
		}
		seen[p] = true
	}
}

// TestValidateDeterministicError pins the sorted-key walk in Validate:
// with several invariant violations present, every call must pick the
// same one (the smallest offending logical block), not whichever a map
// range happens to visit first.
func TestValidateDeterministicError(t *testing.T) {
	_, m, _ := newTestManager(t)
	// Three logical blocks aliasing the same physical frame.
	m.remap[0x1000] = 0xF000
	m.remap[0x2000] = 0xF000
	m.remap[0x3000] = 0xF000
	// Make the frames they vacated "occupied" so aliasing is the only
	// violation class.
	m.remap[0xF000] = 0x1000
	m.remap[0x4000] = 0x2000
	m.remap[0x5000] = 0x3000
	first, err := m.Validate(), error(nil)
	if first == nil {
		t.Fatal("Validate accepted an aliased table")
	}
	_ = err
	for i := 0; i < 32; i++ {
		if got := m.Validate(); got == nil || got.Error() != first.Error() {
			t.Fatalf("Validate error changed between calls:\n  first: %v\n  now:   %v", first, got)
		}
	}
	want := "migrate: blocks 0x1000 and 0x2000 alias physical 0xf000"
	if first.Error() != want {
		t.Fatalf("Validate error = %q, want %q", first, want)
	}
}

// TestFingerprintStable checks that Fingerprint is a pure function of
// the table contents, independent of insertion order.
func TestFingerprintStable(t *testing.T) {
	_, m1, _ := newTestManager(t)
	_, m2, _ := newTestManager(t)
	m1.remap[1] = 100
	m1.remap[2] = 200
	m2.remap[2] = 200
	m2.remap[1] = 100
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatal("fingerprint depends on insertion order")
	}
	m2.remap[3] = 300
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Fatal("fingerprint blind to table contents")
	}
}
