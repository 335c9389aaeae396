package sim

import "testing"

// TestProbeBoundaries: the probe fires once per crossed boundary, in
// order, with the clock reading the boundary instant, and fires nothing
// when time never reaches the first boundary.
func TestProbeBoundaries(t *testing.T) {
	eng := NewEngine()
	var at []Time
	eng.SetProbe(10, func(now Time) {
		if eng.Now() != now {
			t.Errorf("probe at %v but clock reads %v", now, eng.Now())
		}
		at = append(at, now)
	})
	fired := 0
	eng.At(5, func() { fired++ })
	eng.At(25, func() { fired++ }) // crosses 10 and 20
	eng.At(40, func() { fired++ }) // lands on 30 and 40: 40 fires before the event
	eng.Run()
	want := []Time{10, 20, 30, 40}
	if len(at) != len(want) {
		t.Fatalf("probe times %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("probe times %v, want %v", at, want)
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
}

// TestProbeDoesNotPerturb: an armed probe changes neither the event
// count nor the sequence numbering visible through event order.
func TestProbeDoesNotPerturb(t *testing.T) {
	run := func(probe bool) (order []int, firedAtEnd uint64) {
		eng := NewEngine()
		if probe {
			eng.SetProbe(7, func(Time) {})
		}
		for i, at := range []Time{30, 10, 20, 10, 50} {
			i := i
			eng.At(at, func() { order = append(order, i) })
		}
		eng.Run()
		return order, eng.Fired()
	}
	a, fa := run(false)
	b, fb := run(true)
	if fa != fb {
		t.Fatalf("Fired with probe %d != without %d", fb, fa)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event order changed: %v vs %v", a, b)
		}
	}
}

// TestProbeScheduleRejected: probes are read-only observers; scheduling
// from inside one must panic rather than silently perturb event order.
func TestProbeScheduleRejected(t *testing.T) {
	eng := NewEngine()
	eng.SetProbe(10, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("Schedule inside probe did not panic")
			}
		}()
		eng.Schedule(5, func() {})
	})
	eng.At(15, func() {})
	eng.Run()
}

// TestProbeDisarm: SetProbe(_, nil) stops further firings.
func TestProbeDisarm(t *testing.T) {
	eng := NewEngine()
	n := 0
	eng.SetProbe(10, func(Time) { n++ })
	eng.At(15, func() { eng.SetProbe(0, nil) })
	eng.At(45, func() {})
	eng.Run()
	if n != 1 {
		t.Fatalf("probe fired %d times after disarm, want 1", n)
	}
}
