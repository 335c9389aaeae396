package sim

import (
	"strconv"
	"testing"
)

// BenchmarkHeapChurn exercises the radix heap with a standing population
// of future events: every fired event schedules a replacement at a
// pseudo-random future offset, so each op is one pop + one push at depth.
// The depth=N rows draw offsets from 1–1000 ps; the delay=1-30ns row
// uses the simulator's own range (serialization, SerDes, crossbar and
// bank delays) at the depth its runs reach.
func BenchmarkHeapChurn(b *testing.B) {
	type churn struct {
		name   string
		depth  int
		offset func(r uint64) Time
	}
	ps := func(r uint64) Time { return Time(r%1000 + 1) }
	ns := func(r uint64) Time { return Time(r%30+1) * Nanosecond }
	var cases []churn
	for _, depth := range []int{16, 64, 256, 4096} {
		cases = append(cases, churn{"depth=" + strconv.Itoa(depth), depth, ps})
	}
	cases = append(cases, churn{"depth=64,delay=1-30ns", 64, ns})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			eng := NewEngine()
			rng := uint64(1)
			next := func() Time {
				// xorshift keeps delays varied without allocation.
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return c.offset(rng)
			}
			n := 0
			var fn func()
			fn = func() {
				n++
				if n < b.N {
					eng.Schedule(next(), fn)
				}
			}
			for i := 0; i < c.depth; i++ {
				eng.Schedule(next(), fn)
			}
			b.ResetTimer()
			eng.Run()
		})
	}
}

// BenchmarkFastLane measures the zero-delay path: each event schedules a
// same-instant follow-on, which must bypass the radix heap entirely.
func BenchmarkFastLane(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			eng.Schedule(0, fn)
		}
	}
	b.ResetTimer()
	eng.Schedule(0, fn)
	eng.Run()
}

// BenchmarkArgHandler measures the typed-argument form used by the
// link/vault hot paths: one bound callback reused across schedules, the
// operand carried in the event. Must be allocation-free for pointer args.
func BenchmarkArgHandler(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	type payload struct{ n int }
	p := &payload{}
	var fn ArgHandler
	fn = func(arg any) {
		pl := arg.(*payload)
		pl.n++
		if pl.n < b.N {
			eng.ScheduleArg(1, fn, pl)
		}
	}
	b.ResetTimer()
	eng.ScheduleArg(1, fn, p)
	eng.Run()
	if p.n != b.N {
		b.Fatalf("fired %d, want %d", p.n, b.N)
	}
}

// BenchmarkMixedLoad approximates the simulator's real profile: a bursty
// mix of zero-delay handoffs (router/link kicks) and short future delays
// (serialization, bank access), with a modest standing queue.
func BenchmarkMixedLoad(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	n := 0
	var hop func()
	var settle func()
	hop = func() {
		n++
		if n >= b.N {
			return
		}
		// Two same-instant handoffs per future event mirrors the
		// router-sweep / link-pump cascade.
		if n%3 != 0 {
			eng.Schedule(0, hop)
			return
		}
		eng.Schedule(Time(n%97+1), settle)
	}
	settle = hop
	b.ResetTimer()
	for i := 0; i < 32 && i < b.N; i++ {
		eng.Schedule(Time(i+1), hop)
	}
	eng.Run()
}
