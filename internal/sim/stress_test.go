package sim

import (
	"math/rand"
	"testing"
)

// TestStressSameTimeOrdering floods one instant from both sides of the
// scheduler — events pre-loaded into the radix heap before time reaches
// them, and zero-delay follow-ons enqueued into the fast lane while the
// instant executes — and asserts the global (time, scheduling order)
// order: the heap residents (scheduled earlier) must all fire before
// any lane event of the same instant, and lane events must fire FIFO.
func TestStressSameTimeOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	// 50 heap events at t=100, scheduled at t=0.
	for i := 0; i < 50; i++ {
		i := i
		e.At(100, func() {
			order = append(order, i)
			if i < 10 {
				// Each of the first ten spawns a same-instant follow-on;
				// all of these must fire after every heap resident.
				j := 1000 + i
				e.Schedule(0, func() { order = append(order, j) })
			}
		})
	}
	e.Run()
	if len(order) != 60 {
		t.Fatalf("fired %d events, want 60", len(order))
	}
	for i := 0; i < 50; i++ {
		if order[i] != i {
			t.Fatalf("heap resident %d fired at position %d (%v)", order[i], i, order[:50])
		}
	}
	for i := 0; i < 10; i++ {
		if order[50+i] != 1000+i {
			t.Fatalf("lane event order wrong at %d: %v", i, order[50:])
		}
	}
}

// TestStressInterleavedRunWhile drives one schedule through partial
// runs, alternately to a clock marker and for an event budget, and
// checks that partial runs leave no ordering debris in the queue or
// lane.
func TestStressInterleavedRunWhile(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(42))
	type fired struct {
		at  Time
		tag int
	}
	var log []fired
	tag := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		mytag := tag
		tag++
		delay := Time(rng.Intn(50)) // 0 is common: exercises the lane
		e.Schedule(delay, func() {
			log = append(log, fired{at: e.Now(), tag: mytag})
			if depth > 0 && rng.Intn(3) == 0 {
				spawn(depth - 1)
			}
		})
	}
	for i := 0; i < 200; i++ {
		spawn(3)
	}

	// Drain through interleaved partial runs.
	deadline := Time(10)
	budget := 25
	for e.Pending() > 0 {
		if deadline < e.Now() {
			deadline = e.Now()
		}
		runTo(e, deadline)
		deadline += 10
		count := 0
		e.RunWhile(func() bool {
			count++
			return count <= budget
		})
	}

	// Times must be non-decreasing; equal times must fire in spawn
	// order among events scheduled before their instant was reached —
	// which the tag order approximates monotonically per timestamp batch
	// only for non-nested spawns, so assert the strong invariant the
	// engine actually guarantees: the clock never goes backwards and
	// every event fired exactly once.
	seen := make(map[int]bool, len(log))
	for i, f := range log {
		if i > 0 && f.at < log[i-1].at {
			t.Fatalf("clock went backwards: %v after %v", f.at, log[i-1].at)
		}
		if seen[f.tag] {
			t.Fatalf("event %d fired twice", f.tag)
		}
		seen[f.tag] = true
	}
	if len(log) != tag {
		t.Fatalf("fired %d events, scheduled %d", len(log), tag)
	}
}

// TestStressHeapLargePopulation pushes tens of thousands of events with
// random times and checks full-drain ordering — a direct test of the
// radix heap's refills at depth.
func TestStressHeapLargePopulation(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	var last Time = -1
	var lastSeq int
	fired := 0
	for i := 0; i < n; i++ {
		i := i
		at := Time(rng.Intn(1000))
		e.At(at, func() {
			fired++
			if e.Now() < last {
				t.Fatalf("time regressed: %v < %v", e.Now(), last)
			}
			if e.Now() == last && i < lastSeq {
				t.Fatalf("same-time events reordered: %d after %d at %v", i, lastSeq, e.Now())
			}
			last = e.Now()
			lastSeq = i
		})
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired %d, want %d", fired, n)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after drain", e.Pending())
	}
}
