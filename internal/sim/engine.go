// Package sim is a deterministic discrete-event simulation engine: a
// virtual clock, an event queue, seeded randomness streams, a link model
// with transmission serialisation, and the computational delay models
// the paper injects for Bloom-filter and signature operations (ndnSIM
// "does not take the time of the computational operations into account",
// §8.B — neither does a bare event loop, so measured costs are injected
// as normally-distributed delays, exactly as the authors did).
package sim

import (
	"math"
	"time"
)

// Epoch is the canonical virtual start time of every simulation.
var Epoch = time.Unix(0, 0).UTC()

// Engine is a single-threaded discrete-event scheduler. It is
// deliberately not concurrency-safe: determinism comes from a single
// totally-ordered event stream.
type Engine struct {
	// now is virtual nanoseconds since Epoch; later times (past ~292
	// years) saturate at math.MaxInt64.
	now       int64
	events    []event // 4-ary min-heap ordered by (at, seq)
	seq       uint64
	processed uint64
	stopped   bool
}

// NewEngine creates an engine with the clock at Epoch.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return Epoch.Add(time.Duration(e.now)) }

// Elapsed returns the virtual time since Epoch.
func (e *Engine) Elapsed() time.Duration { return time.Duration(e.now) }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule enqueues fn to run after delay. Negative delays are clamped
// to zero (run at the current instant, after already-queued events for
// that instant).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	e.push(after(e.now, delay), fn)
}

// ScheduleAt enqueues fn at an absolute virtual time. Times before the
// current clock are clamped to now.
func (e *Engine) ScheduleAt(at time.Time, fn func()) {
	e.push(int64(at.Sub(Epoch)), fn) // Sub saturates
}

// Step executes the earliest pending event, advancing the clock to it.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.stopped || len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

// RunUntil executes every event scheduled at or before deadline, then
// advances the clock to the deadline.
func (e *Engine) RunUntil(deadline time.Time) { e.runUntil(int64(deadline.Sub(Epoch))) }

// RunFor is RunUntil(now + d).
func (e *Engine) RunFor(d time.Duration) { e.runUntil(after(e.now, d)) }

func (e *Engine) runUntil(deadline int64) {
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// Run drains the event queue completely.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Stop halts processing: Step and RunUntil become no-ops. Useful for
// fail-fast assertions inside event handlers.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// after returns now+d, clamping negative d to zero and saturating
// instead of wrapping past the largest representable time.
func after(now int64, d time.Duration) int64 {
	if int64(d) > math.MaxInt64-now { // now is never negative
		return math.MaxInt64
	}
	return now + max(int64(d), 0)
}

// event is one scheduled callback; seq breaks ties FIFO.
type event struct {
	at  int64
	seq uint64
	fn  func()
}

func (a *event) before(b *event) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// push inserts an event at max(at, now) and sifts it up.
func (e *Engine) push(at int64, fn func()) {
	e.seq++
	ev := event{at: max(at, e.now), seq: e.seq, fn: fn}
	e.events = append(e.events, ev)
	h, i := e.events, len(e.events)-1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes the earliest event and sifts the last one down into the
// vacated root.
func (e *Engine) pop() event {
	n := len(e.events) - 1
	top, last := e.events[0], e.events[n]
	e.events[n] = event{} // release the callback
	h := e.events[:n]
	e.events = h
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return top
}
