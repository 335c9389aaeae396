package sim

import "testing"

// TestAllocFreeQueue: once warm, a steady churn through the radix heap
// and the lane allocates nothing. 64 events stay pending, each firing
// schedules its replacement 1–30 ns ahead, and every fourth firing also
// schedules a zero-delay follow-on; the freed nodes and the lane ring
// are reused.
func TestAllocFreeQueue(t *testing.T) {
	e := NewEngine()
	type payload struct{ n uint64 }
	p := &payload{n: 1}
	var kick Handler = func() {}
	var fn ArgHandler
	fn = func(arg any) {
		pl := arg.(*payload)
		pl.n = pl.n*6364136223846793005 + 1442695040888963407
		e.ScheduleArg(Time(pl.n>>33%30+1)*Nanosecond, fn, pl)
		if pl.n>>60 < 4 {
			e.Schedule(0, kick)
		}
	}
	for i := 0; i < 64; i++ {
		e.ScheduleArg(Time(i+1)*Nanosecond, fn, p)
	}
	for i := 0; i < 10000; i++ { // warm-up: node slice and lane at size
		e.Step()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			e.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in 10000 steady-state steps, want 0", allocs)
	}
	if e.Pending() < 64 {
		t.Fatalf("pending %d, want at least 64", e.Pending())
	}
}
