package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v, want 30", e.Now())
	}
}

func TestEngineStableTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: pos %d got %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Schedule(10, func() {
		hits++
		e.Schedule(0, func() { hits++ })  // same-instant follow-up
		e.Schedule(10, func() { hits++ }) // later follow-up
	})
	e.Run()
	if hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
}

func TestEngineRunWhile(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i+1), func() { count++ })
	}
	stopped := e.RunWhile(func() bool { return count < 5 })
	if !stopped {
		t.Fatal("RunWhile should have stopped on cond")
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	// Draining the rest returns false.
	if e.RunWhile(func() bool { return true }) {
		t.Fatal("RunWhile should report queue drained")
	}
}

func TestEnginePanics(t *testing.T) {
	e := NewEngine()
	mustPanic(t, "negative delay", func() { e.Schedule(-1, func() {}) })
	mustPanic(t, "nil handler", func() { e.Schedule(1, nil) })
	e.Schedule(10, func() {})
	e.Run()
	mustPanic(t, "past", func() { e.At(5, func() {}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestEngineMonotonicClock property: for random event sets, handlers
// observe a non-decreasing clock.
func TestEngineMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResource(t *testing.T) {
	var r Resource
	if !r.Idle(0) {
		t.Fatal("fresh resource should be idle")
	}
	start, end := r.Reserve(10, 5)
	if start != 10 || end != 15 {
		t.Fatalf("got [%v,%v], want [10,15]", start, end)
	}
	// Second reservation queues behind the first.
	start, end = r.Reserve(12, 5)
	if start != 15 || end != 20 {
		t.Fatalf("got [%v,%v], want [15,20]", start, end)
	}
	if r.Idle(19) || !r.Idle(20) {
		t.Fatal("idle boundary wrong")
	}
	// Zero-duration reservations do not occupy.
	s, e2 := r.Reserve(25, 0)
	if s != 25 || e2 != 25 || r.FreeAt() != 20 {
		t.Fatalf("zero reserve changed state: s=%v e=%v freeAt=%v", s, e2, r.FreeAt())
	}
	mustPanic(t, "ReserveAt early", func() { r.ReserveAt(10, 5) })
	r.Reset()
	if r.FreeAt() != 0 {
		t.Fatal("reset failed")
	}
}

// TestResourceNoOverlap property: sequential reservations never overlap.
func TestResourceNoOverlap(t *testing.T) {
	f := func(durs []uint8) bool {
		var r Resource
		now := Time(0)
		lastEnd := Time(0)
		for _, d := range durs {
			start, end := r.Reserve(now, Time(d)+1)
			if start < lastEnd {
				return false
			}
			lastEnd = end
			now += 2 // arrivals trickle in
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
