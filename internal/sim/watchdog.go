package sim

// Watchdog detects a wedged simulation: work is still outstanding but no
// forward progress is being made (for example, every in-flight packet is
// stuck behind leaked credits, or a retry storm is re-transmitting the
// same packet forever). It samples a caller-supplied progress counter at
// a fixed simulated-time interval and trips after a configured number of
// consecutive stale samples taken while the network still reports
// outstanding work.
//
// The watchdog schedules ordinary engine events, so it perturbs the
// event count; callers that pin event-count determinism must arm it only
// in runs that opt in (internal/core arms it only when fault injection
// is enabled). Once tripped it stops rescheduling itself, so a
// RunWhile(!Tripped()) loop drains naturally instead of spinning.
type Watchdog struct {
	eng      *Engine
	interval Time
	limit    int

	progress func() uint64 // monotone completed-work counter
	busy     func() bool   // work still outstanding?

	last    uint64
	stale   int
	tripped bool
	tickFn  Handler
}

// NewWatchdog builds a watchdog but does not arm it; call Arm. progress
// must be monotonically non-decreasing (completed transactions, delivered
// packets, ...); busy reports whether work is still outstanding — the
// watchdog never trips an idle network.
func NewWatchdog(eng *Engine, interval Time, limit int, progress func() uint64, busy func() bool) *Watchdog {
	if interval <= 0 || limit <= 0 {
		panic("sim: watchdog needs positive interval and limit")
	}
	w := &Watchdog{eng: eng, interval: interval, limit: limit, progress: progress, busy: busy}
	w.tickFn = w.tick
	return w
}

// Arm takes the baseline progress sample and schedules the first check.
func (w *Watchdog) Arm() {
	w.last = w.progress()
	w.eng.Schedule(w.interval, w.tickFn)
}

// Tripped reports whether the watchdog has declared the network wedged.
func (w *Watchdog) Tripped() bool { return w.tripped }

func (w *Watchdog) tick() {
	cur := w.progress()
	if cur != w.last || !w.busy() {
		w.last = cur
		w.stale = 0
	} else if w.stale++; w.stale >= w.limit {
		w.tripped = true
		return // stop rescheduling; the run loop sees Tripped
	}
	w.eng.Schedule(w.interval, w.tickFn)
}
