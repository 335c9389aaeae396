package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The order oracle: a byte string decodes into a randomized schedule
// (roots, then children scheduled from inside handlers), which runs once
// on the Engine and once on refQueue, a plain slice that pops the first
// event of a stable sort by time — (time, scheduling order) by
// construction. The two firing logs must agree event for event.

// firing is one handler call: which event, at what clock, and how many
// events were still pending after it was popped.
type firing struct {
	id      int
	at      Time
	pending int
}

// orderScript decodes scheduling decisions from a byte string, reading
// it cyclically.
type orderScript struct {
	b []byte
	i int
}

func (s *orderScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[s.i%len(s.b)]
	s.i++
	return c
}

// after returns now+d, or now if that would overflow Time.
func after(now, d Time) Time {
	if now > math.MaxInt64-d {
		return now
	}
	return now + d
}

// when picks the time of the next scheduled event.
func (s *orderScript) when(now Time) Time {
	c := s.next()
	v := Time(c >> 3) // 0..31
	switch c & 7 {
	case 0, 1: // zero delay: the lane
		return now
	case 2, 3: // a few picoseconds ahead: the lowest buckets
		return now + v + 1
	case 4: // 1–32 ns: the simulator's link, router and vault delays
		return after(now, (v+1)*Nanosecond)
	case 5: // a shared 256 ps grid: equal times scheduled at different instants
		return after(now, 256-now%256+(v%4)*256)
	case 6: // 2^20..2^62 ps ahead: the upper buckets
		return after(now, Time(1)<<(20+s.next()%43))
	default: // anywhere in the next ~65 ns
		return after(now, Time(s.next())<<8|v)
	}
}

// orderRig runs one decoded schedule against a queue given by now/at.
type orderRig struct {
	s      orderScript
	budget int
	ids    int
	log    []firing

	now     func() Time
	pending func() int
	at      func(t Time, id int)
}

func newOrderRig(script []byte, budget int) *orderRig {
	return &orderRig{s: orderScript{b: script}, budget: budget}
}

// schedule issues n new events, while the budget lasts.
func (r *orderRig) schedule(n int) {
	for k := 0; k < n && r.ids < r.budget; k++ {
		r.at(r.s.when(r.now()), r.ids)
		r.ids++
	}
}

// fire logs event id and schedules its children from inside the handler.
func (r *orderRig) fire(id int) {
	r.log = append(r.log, firing{id: id, at: r.now(), pending: r.pending()})
	r.schedule(int(r.s.next() % 4))
}

// start schedules the roots from outside any handler.
func (r *orderRig) start() { r.schedule(1 + int(r.s.next()%8)) }

// refQueue is the reference model: pending events in scheduling order,
// popped as the first element of a stable sort by time.
type refQueue struct {
	now     Time
	pending []struct {
		at Time
		id int
	}
}

func runReference(script []byte, budget int) []firing {
	var q refQueue
	r := newOrderRig(script, budget)
	r.now = func() Time { return q.now }
	r.pending = func() int { return len(q.pending) }
	r.at = func(t Time, id int) {
		q.pending = append(q.pending, struct {
			at Time
			id int
		}{t, id})
	}
	r.start()
	for len(q.pending) > 0 {
		sort.SliceStable(q.pending, func(i, j int) bool { return q.pending[i].at < q.pending[j].at })
		ev := q.pending[0]
		q.pending = q.pending[1:]
		q.now = ev.at
		r.fire(ev.id)
	}
	return r.log
}

// runEngine runs the schedule on an Engine, alternating At and AtArg
// handlers; probeEvery > 0 arms a probe that checks its own clock.
func runEngine(t testing.TB, script []byte, budget int, probeEvery Time) ([]firing, *Engine) {
	e := NewEngine()
	r := newOrderRig(script, budget)
	r.now = e.Now
	r.pending = e.Pending
	fireArg := func(arg any) { r.fire(arg.(int)) }
	r.at = func(at Time, id int) {
		if id%2 == 0 {
			e.At(at, func() { r.fire(id) })
		} else {
			e.AtArg(at, fireArg, id)
		}
	}
	if probeEvery > 0 {
		var last Time
		e.SetProbe(probeEvery, func(at Time) {
			if e.Now() != at || at%probeEvery != 0 || at <= last {
				t.Fatalf("probe at %v, clock %v, previous %v, interval %v", at, e.Now(), last, probeEvery)
			}
			last = at
		})
	}
	r.start()
	e.Run()
	return r.log, e
}

// checkOrder compares the Engine against the reference on one script,
// unprobed and probed.
func checkOrder(t testing.TB, script []byte, budget int) {
	t.Helper()
	want := runReference(script, budget)
	got, e := runEngine(t, script, budget, 0)
	compareLogs(t, "engine", got, want)
	if e.Fired() != uint64(len(want)) || e.Pending() != 0 {
		t.Fatalf("Fired %d Pending %d after drain, want %d and 0", e.Fired(), e.Pending(), len(want))
	}
	// A probe must not move anything. Its interval is a fraction of the
	// run's span, so a 2^62 ps run does not fire it 2^62 times.
	span := Time(1)
	if len(want) > 0 {
		span = want[len(want)-1].at
	}
	every := span/Time(1+len(script)%200) + 1
	probed, pe := runEngine(t, script, budget, every)
	compareLogs(t, "probed engine", probed, want)
	if pe.Fired() != e.Fired() {
		t.Fatalf("Fired with probe %d, without %d", pe.Fired(), e.Fired())
	}
}

func compareLogs(t testing.TB, name string, got, want []firing) {
	t.Helper()
	for i := range want {
		if i >= len(got) {
			t.Fatalf("%s fired %d events, reference %d", name, len(got), len(want))
		}
		if got[i] != want[i] {
			t.Fatalf("%s firing %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s fired %d events, reference %d", name, len(got), len(want))
	}
}

// orderSeeds are hand-picked scripts, 400 events each at the test's
// budget; the comment names what each one exercises most.
var orderSeeds = [][]byte{
	{2, 0, 3, 0, 1, 2, 9, 0},                // zero delays from outside, from heap and from lane handlers
	{5, 13, 21, 29, 3, 5, 13, 2},            // grid times shared by events scheduled at different instants
	{3, 6, 42, 2, 0, 1, 6, 128, 3},          // 2^62 ps jumps among zero and near delays
	{4, 12, 20, 255, 3, 2, 1, 0, 4, 124, 3}, // nanosecond delays landing on shared times
	{7, 255, 7, 0, 7, 128, 2, 5, 3},         // scattered future times
}

// TestEngineOrderOracle is the differential test: hand-picked and
// random scripts, each against the reference model.
func TestEngineOrderOracle(t *testing.T) {
	for _, s := range orderSeeds {
		checkOrder(t, s, 400)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		s := make([]byte, 1+rng.Intn(96))
		rng.Read(s)
		checkOrder(t, s, 600)
	}
}

// FuzzEngineOrder drives fuzzer-chosen scripts against the reference.
func FuzzEngineOrder(f *testing.F) {
	for _, s := range orderSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		checkOrder(t, script, 300)
	})
}
