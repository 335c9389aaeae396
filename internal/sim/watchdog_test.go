package sim

import "testing"

// TestWatchdogTripsOnWedge: outstanding work with a flat progress
// counter must trip after exactly limit stale intervals.
func TestWatchdogTripsOnWedge(t *testing.T) {
	eng := NewEngine()
	w := NewWatchdog(eng, Microsecond, 3, func() uint64 { return 5 }, func() bool { return true })
	w.Arm()
	eng.RunWhile(func() bool { return !w.Tripped() })
	if !w.Tripped() {
		t.Fatal("watchdog never tripped on a wedged network")
	}
	if got, want := eng.Now(), 3*Microsecond; got != want {
		t.Errorf("tripped at %v, want %v", got, want)
	}
	if eng.Pending() != 0 {
		t.Errorf("tripped watchdog left %d events queued", eng.Pending())
	}
}

// TestWatchdogProgressResetsStale: progress between samples resets the
// stale counter, so intermittent progress never trips.
func TestWatchdogProgressResetsStale(t *testing.T) {
	eng := NewEngine()
	var done uint64
	w := NewWatchdog(eng, Microsecond, 2, func() uint64 { return done }, func() bool { return true })
	w.Arm()
	// Bump progress every 1.5 µs: each window of 2 consecutive samples
	// sees at least one change for the first several intervals.
	for i := 1; i <= 6; i++ {
		eng.At(Time(i)*3*Microsecond/2, func() { done++ })
	}
	runTo(eng, 8*Microsecond)
	if w.Tripped() {
		t.Fatal("watchdog tripped despite intermittent progress")
	}
	// After the bumps stop, it must still trip.
	eng.RunWhile(func() bool { return !w.Tripped() })
	if !w.Tripped() {
		t.Fatal("watchdog failed to trip after progress stopped")
	}
}

// TestWatchdogIdleNeverTrips: busy()==false means a quiet network, not a
// wedge, no matter how long progress stays flat.
func TestWatchdogIdleNeverTrips(t *testing.T) {
	eng := NewEngine()
	w := NewWatchdog(eng, Microsecond, 2, func() uint64 { return 0 }, func() bool { return false })
	w.Arm()
	runTo(eng, 20*Microsecond)
	if w.Tripped() {
		t.Fatal("watchdog tripped on an idle network")
	}
}

// runTo runs eng until a marker event scheduled now for time t fires:
// every event before t, and those at t scheduled before the marker.
func runTo(eng *Engine, t Time) {
	reached := false
	eng.At(t, func() { reached = true })
	eng.RunWhile(func() bool { return !reached })
}

func TestWatchdogBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	NewWatchdog(NewEngine(), 0, 1, func() uint64 { return 0 }, func() bool { return false })
}
