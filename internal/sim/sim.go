// Package sim provides a deterministic discrete-event simulation engine.
//
// All network, protocol, and application behaviour in this repository runs
// on virtual time driven by a Simulator. Events scheduled for the same
// instant fire in the order they were scheduled, so every run is exactly
// reproducible. The engine is intentionally single-threaded: callbacks run
// on the caller's goroutine inside Run, Step, or RunUntil.
//
// The event queue is a hierarchical timer wheel (wheel.go) that fires
// in (when, seq) order; a standalone sorted-slice model in the tests
// (oracle_test.go) is the reference it is checked against.
//
// The hot path is allocation-free: timer state lives in a free-list
// arena inside the Simulator, and callers hold value-type TimerHandles
// (a generation counter makes stale handles inert). The *Arg scheduling
// variants take a plain function and an any argument, so callers can
// schedule package-level functions with a pointer receiver boxed into
// the argument — no closure allocation per event.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience; all delays in
// the simulator are expressed with it.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the instant as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// entry states.
const (
	stateFree uint8 = iota
	statePending
)

// entry locations within the wheel.
const (
	locNone uint8 = iota
	locWheel
	locDue
	locOverflow
)

// entry is one scheduled event in the simulator's arena. Entries are
// recycled through a free list; gen increments each time an entry dies
// (fires or is stopped), which is what makes stale TimerHandles inert.
type entry struct {
	when  Time
	seq   uint64
	gen   uint32
	state uint8
	loc   uint8
	level uint8
	slot  uint8
	// next/prev link the entry into a wheel slot's doubly-linked list;
	// the overflow heap reuses next as the heap position.
	next, prev int32
	fn         func()
	afn        func(any)
	arg        any
}

// Simulator owns the virtual clock and the pending event queue.
// The zero value is not usable; call New.
type Simulator struct {
	now   Time
	seq   uint64
	fired uint64
	limit uint64 // safety cap on events per Run; 0 = none

	ents []entry
	free []int32
	q    *wheel
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator { return &Simulator{q: newWheel()} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Fired is the number of events executed so far.
	Fired uint64
}

// Stats returns a snapshot of the engine's counters.
func (s *Simulator) Stats() Stats {
	return Stats{Fired: s.fired}
}

// SetEventLimit caps the number of events a single Run may execute; it
// guards against runaway feedback loops in tests. Zero removes the cap.
func (s *Simulator) SetEventLimit(n uint64) { s.limit = n }

// TimerHandle is a value-type reference to a scheduled event. The zero
// value is inert. A handle goes stale the moment its event fires or is
// stopped — Stop and Reschedule on a stale handle return false and do
// nothing, so re-arming after a fire is always explicit. Handles are
// safe by construction against the recycled timer slot being reused: a
// generation counter distinguishes the handle's event from any later
// event occupying the same arena slot.
type TimerHandle struct {
	s   *Simulator
	idx int32
	gen uint32
}

// ent returns the handle's live entry, or nil if the handle is stale.
func (h TimerHandle) ent() *entry {
	if h.s == nil || int(h.idx) >= len(h.s.ents) {
		return nil
	}
	e := &h.s.ents[h.idx]
	if e.gen != h.gen || e.state != statePending {
		return nil
	}
	return e
}

// Active reports whether the handle's event is still pending.
func (h TimerHandle) Active() bool { return h.ent() != nil }

// Stop cancels the event if it has not fired. It reports whether the
// call actually prevented the event from firing; stopping an
// already-fired, already-stopped, or zero handle returns false.
func (h TimerHandle) Stop() bool {
	e := h.ent()
	if e == nil {
		return false
	}
	s := h.s
	s.q.remove(s, h.idx)
	s.release(h.idx)
	return true
}

// Reschedule moves a still-pending event to fire after delay from now,
// keeping the handle valid. It returns false — and schedules nothing —
// if the event already fired or was stopped: re-arming a dead timer is
// the caller's explicit decision, never an implicit resurrection.
// A successful Reschedule consumes one sequence number, exactly like a
// Stop followed by a Schedule, and allocates nothing.
func (h TimerHandle) Reschedule(delay Duration) bool {
	e := h.ent()
	if e == nil {
		return false
	}
	if delay < 0 {
		delay = 0
	}
	s := h.s
	s.q.remove(s, h.idx)
	s.seq++
	e.when = s.now.Add(delay)
	e.seq = s.seq
	s.q.insert(s, h.idx)
	return true
}

// alloc takes an entry from the free list (or grows the arena) and
// returns its index. The entry's gen is whatever its last death left.
func (s *Simulator) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.ents = append(s.ents, entry{})
	return int32(len(s.ents) - 1)
}

// release kills an entry: bump the generation so outstanding handles go
// stale, clear the callback references, and return it to the free list.
func (s *Simulator) release(idx int32) {
	e := &s.ents[idx]
	e.gen++
	e.state = stateFree
	e.loc = locNone
	e.fn = nil
	e.afn = nil
	e.arg = nil
	s.free = append(s.free, idx)
}

// schedule is the common path behind At/Schedule and their Arg variants.
func (s *Simulator) schedule(t Time, fn func(), afn func(any), arg any) TimerHandle {
	if t < s.now {
		t = s.now
	}
	s.seq++
	idx := s.alloc()
	e := &s.ents[idx]
	e.when = t
	e.seq = s.seq
	e.state = statePending
	e.fn = fn
	e.afn = afn
	e.arg = arg
	s.q.insert(s, idx)
	return TimerHandle{s: s, idx: idx, gen: e.gen}
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. The returned handle may be used to cancel or move the event.
func (s *Simulator) Schedule(delay Duration, fn func()) TimerHandle {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now.Add(delay), fn)
}

// At runs fn at instant t. If t is in the past it fires at the current
// instant (but still through the queue, after already-queued events for
// that instant).
func (s *Simulator) At(t Time, fn func()) TimerHandle {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	return s.schedule(t, fn, nil, nil)
}

// ScheduleArg is Schedule for an argument-taking function: fn(arg) runs
// after delay. Scheduling this way allocates nothing when fn is a
// package-level function and arg a pointer, which is what keeps the
// per-packet and per-timer hot paths allocation-free.
func (s *Simulator) ScheduleArg(delay Duration, fn func(any), arg any) TimerHandle {
	if delay < 0 {
		delay = 0
	}
	return s.AtArg(s.now.Add(delay), fn, arg)
}

// AtArg is At for an argument-taking function: fn(arg) runs at instant t.
func (s *Simulator) AtArg(t Time, fn func(any), arg any) TimerHandle {
	if fn == nil {
		panic("sim: AtArg called with nil function")
	}
	return s.schedule(t, nil, fn, arg)
}

// Step executes the single next event, advancing the clock to its instant.
// It reports whether an event was executed.
func (s *Simulator) Step() bool {
	idx := s.q.peek(s)
	if idx < 0 {
		return false
	}
	s.q.pop()
	e := &s.ents[idx]
	s.now = e.when
	fn, afn, arg := e.fn, e.afn, e.arg
	s.release(idx)
	s.fired++
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	return true
}

// Run executes events until the queue is empty (or the event limit is hit,
// in which case it panics to surface the bug).
func (s *Simulator) Run() {
	start := s.fired
	for s.Step() {
		if s.limit > 0 && s.fired-start > s.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
		}
	}
}

// RunUntil executes events with instants <= t, then advances the clock to
// t (even if the queue still holds later events).
func (s *Simulator) RunUntil(t Time) {
	for {
		idx := s.q.peek(s)
		if idx < 0 || s.ents[idx].when > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// less orders entries by (when, seq), the engine-wide firing order.
func (s *Simulator) less(a, b int32) bool {
	ea, eb := &s.ents[a], &s.ents[b]
	if ea.when != eb.when {
		return ea.when < eb.when
	}
	return ea.seq < eb.seq
}
