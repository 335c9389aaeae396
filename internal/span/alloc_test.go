package span

import (
	"io"
	"runtime/debug"
	"testing"

	"memnet/internal/packet"
)

// cycle drives one sampled transaction through a steady-state hook
// sequence: start with a window wait, four link traversals, one router
// arbitration, a vault issue, and completion, reusing pk.
func cycle(r *Recorder, pk *packet.Packet) {
	r.Start(pk, 100, 40)
	r.Ship(pk, "h>1", 5, 100, 110, 115, 130)
	r.Seg(pk, RouterArb, "r1", 135, 8)
	r.Ship(pk, "1>2", 5, 143, 150, 150, 160)
	pk.ArrivedMem, pk.MemLatency = 165, 30
	r.VaultIssue(pk, "v2.q0", 170, 5)
	r.Ship(pk, "2>1", 5, 195, 200, 200, 210)
	r.Ship(pk, "1>h", 5, 215, 220, 220, 230)
	r.Complete(pk, 235)
}

// TestAllocFreeSpanRecorder is the recorder's allocation gate: once
// warm, a completed span costs one allocation, its owned segment copy;
// the slot's buffer, the sort and the free list allocate nothing.
func TestAllocFreeSpanRecorder(t *testing.T) {
	const n = 1000
	r := NewRecorder(Config{}, 0)
	pk := mkPacket(1)
	for i := 0; i < 2*n; i++ {
		cycle(r, pk)
	}
	// Keep the completed list's grown capacity so appends to it are not
	// counted: AllocsPerRun below adds 2n spans (warm-up plus measured).
	r.spans = r.spans[:0]
	// A collection cycle during the loop makes a few runtime allocations
	// of its own that are not the recorder's; keep it out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			cycle(r, pk)
		}
	})
	if allocs > n {
		t.Fatalf("%v allocations for %d completed spans, want at most %d", allocs, n, n)
	}
}

// TestAllocFreeSpanWrite: encoding allocates a fixed count per file,
// independent of how many spans it holds.
func TestAllocFreeSpanWrite(t *testing.T) {
	allocsFor := func(n int) float64 {
		r := NewRecorder(Config{}, 0)
		for i := 0; i < n; i++ {
			cycle(r, mkPacket(uint64(i)))
		}
		hdr := Header{Label: "100%-C", Workload: "KMEANS", Seed: 1, Stride: 1, Dropped: 3}
		return testing.AllocsPerRun(5, func() {
			if err := Write(io.Discard, hdr, r.Spans()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsFor(10), allocsFor(1000)
	if small != large {
		t.Fatalf("Write allocates %v for 10 spans but %v for 1000", small, large)
	}
}
