package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// eachEngine runs a core contract test on a fresh Simulator, as the
// subtest "wheel" — the name these tests have reported under since the
// wheel was one of two engines.
func eachEngine(t *testing.T, f func(t *testing.T, s *Simulator)) {
	t.Helper()
	t.Run("wheel", func(t *testing.T) { f(t, New()) })
}

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		var at Time
		s.Schedule(5*time.Millisecond, func() { at = s.Now() })
		s.Run()
		if want := Time(5 * time.Millisecond); at != want {
			t.Fatalf("event fired at %v, want %v", at, want)
		}
		if s.Now() != at {
			t.Fatalf("clock %v, want %v", s.Now(), at)
		}
	})
}

func TestEventOrderByTime(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		var order []int
		s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
		s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
		s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
		s.Run()
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	})
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			s.Schedule(time.Millisecond, func() { order = append(order, i) })
		}
		s.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("order[%d] = %d, want %d (FIFO for equal instants)", i, v, i)
			}
		}
	})
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v for negative delay", s.Now())
	}
}

func TestStopPreventsFiring(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		fired := false
		h := s.Schedule(time.Millisecond, func() { fired = true })
		if !h.Active() {
			t.Fatal("pending handle not Active")
		}
		if !h.Stop() {
			t.Fatal("Stop returned false for pending timer")
		}
		s.Run()
		if fired {
			t.Fatal("stopped timer fired")
		}
		if h.Stop() {
			t.Fatal("second Stop returned true")
		}
	})
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		h := s.Schedule(time.Millisecond, func() {})
		s.Run()
		if h.Active() {
			t.Fatal("fired handle still Active")
		}
		if h.Stop() {
			t.Fatal("Stop after fire returned true")
		}
		if st := s.Stats(); s.inUse() != 0 || st.Fired != 1 {
			t.Fatalf("Stats after stop-after-fire = %+v with %d arena entries", st, s.inUse())
		}
	})
}

func TestZeroHandleIsInert(t *testing.T) {
	var h TimerHandle
	if h.Active() || h.Stop() || h.Reschedule(time.Second) {
		t.Fatal("zero TimerHandle is not inert")
	}
	if _, ok := h.When(); ok {
		t.Fatal("zero TimerHandle has a When")
	}
}

func TestStopMiddleOfQueue(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		var order []int
		s.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
		h2 := s.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
		s.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
		h2.Stop()
		s.Run()
		if len(order) != 2 || order[0] != 1 || order[1] != 3 {
			t.Fatalf("order = %v, want [1 3]", order)
		}
	})
}

func TestRescheduleMovesPendingTimer(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		var at Time
		h := s.Schedule(time.Millisecond, func() { at = s.Now() })
		if !h.Reschedule(10 * time.Millisecond) {
			t.Fatal("Reschedule returned false for pending timer")
		}
		s.Run()
		if want := Time(10 * time.Millisecond); at != want {
			t.Fatalf("fired at %v, want %v", at, want)
		}
		if got := s.Stats().Fired; got != 1 {
			t.Fatalf("fired %d events, want 1", got)
		}
	})
}

// Rescheduling a fired timer must NOT resurrect its callback: re-arming
// after a fire is an explicit new Schedule. (The old API silently
// resurrected here.)
func TestRescheduleAfterFireReturnsFalse(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		count := 0
		h := s.Schedule(time.Millisecond, func() { count++ })
		s.Run()
		if h.Reschedule(time.Millisecond) {
			t.Fatal("Reschedule returned true for a fired timer")
		}
		s.Run()
		if count != 1 {
			t.Fatalf("count = %d, want 1 (fired timer must not resurrect)", count)
		}
		// Explicit re-arm is the supported idiom.
		h = s.Schedule(time.Millisecond, func() { count++ })
		s.Run()
		if count != 2 {
			t.Fatalf("count = %d after explicit re-arm, want 2", count)
		}
	})
}

func TestRescheduleAfterStopReturnsFalse(t *testing.T) {
	s := New()
	h := s.Schedule(time.Millisecond, func() { t.Error("stopped timer fired") })
	h.Stop()
	if h.Reschedule(time.Millisecond) {
		t.Fatal("Reschedule returned true for a stopped timer")
	}
	s.Run()
}

// A stale handle must stay inert even after its arena slot is recycled
// for a new event: the generation counter distinguishes them.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		old := s.Schedule(time.Millisecond, func() {})
		s.Run()
		fired := false
		fresh := s.Schedule(time.Millisecond, func() { fired = true })
		if fresh.idx != old.idx {
			t.Fatalf("free list did not recycle slot %d (got %d)", old.idx, fresh.idx)
		}
		if old.Stop() || old.Reschedule(time.Second) || old.Active() {
			t.Fatal("stale handle acted on a recycled slot")
		}
		s.Run()
		if !fired {
			t.Fatal("recycled slot's event did not fire")
		}
	})
}

func TestScheduleArg(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		type box struct{ hits int }
		b := &box{}
		bump := func(a any) { a.(*box).hits++ }
		s.ScheduleArg(time.Millisecond, bump, b)
		s.AtArg(Time(2*time.Millisecond), bump, b)
		s.Run()
		if b.hits != 2 {
			t.Fatalf("hits = %d, want 2", b.hits)
		}
	})
}

func TestWhenReportsInstant(t *testing.T) {
	s := New()
	h := s.Schedule(7*time.Millisecond, func() {})
	if w, ok := h.When(); !ok || w != Time(7*time.Millisecond) {
		t.Fatalf("When = %v,%v, want 7ms,true", w, ok)
	}
	h.Reschedule(9 * time.Millisecond)
	if w, ok := h.When(); !ok || w != Time(9*time.Millisecond) {
		t.Fatalf("When after Reschedule = %v,%v, want 9ms,true", w, ok)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		var fired []Time
		s.Schedule(1*time.Millisecond, func() { fired = append(fired, s.Now()) })
		s.Schedule(5*time.Millisecond, func() { fired = append(fired, s.Now()) })
		s.RunUntil(Time(3 * time.Millisecond))
		if len(fired) != 1 {
			t.Fatalf("fired %d events, want 1", len(fired))
		}
		if s.Now() != Time(3*time.Millisecond) {
			t.Fatalf("clock = %v, want 3ms", s.Now())
		}
		if got := s.inUse(); got != 1 {
			t.Fatalf("pending = %d, want 1", got)
		}
		s.Run()
		if len(fired) != 2 {
			t.Fatalf("fired %d events after Run, want 2", len(fired))
		}
	})
}

func TestRunFor(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {})
	s.RunFor(500 * time.Millisecond)
	if s.Now() != Time(500*time.Millisecond) {
		t.Fatalf("clock = %v, want 500ms", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		var depth3 Time
		s.Schedule(time.Millisecond, func() {
			s.Schedule(time.Millisecond, func() {
				s.Schedule(time.Millisecond, func() { depth3 = s.Now() })
			})
		})
		s.Run()
		if want := Time(3 * time.Millisecond); depth3 != want {
			t.Fatalf("nested event at %v, want %v", depth3, want)
		}
	})
}

func TestEventLimitPanics(t *testing.T) {
	s := New()
	s.SetEventLimit(100)
	var loop func()
	loop = func() { s.Schedule(time.Millisecond, loop) }
	s.Schedule(time.Millisecond, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from event limit")
		}
	}()
	s.Run()
}

func TestAtInPastFiresNow(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		s.Schedule(10*time.Millisecond, func() {
			s.At(Time(1*time.Millisecond), func() {
				if s.Now() != Time(10*time.Millisecond) {
					t.Errorf("past event fired at %v, want now (10ms)", s.Now())
				}
			})
		})
		s.Run()
	})
}

// Events far beyond the wheel horizon must park in the overflow heap and
// cascade back in order; this crosses every level boundary.
func TestFarFutureEventsCascade(t *testing.T) {
	eachEngine(t, func(t *testing.T, s *Simulator) {
		delays := []time.Duration{
			500 * time.Nanosecond, // below slot granularity
			90 * time.Microsecond,
			6 * time.Millisecond,
			420 * time.Millisecond,
			3 * time.Second,
			64 * time.Second, // beyond the ~17s horizon: overflow heap
			65 * time.Second,
			30 * time.Minute,
		}
		var fired []Time
		for _, d := range delays {
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			t.Fatalf("fired %d events, want %d", len(fired), len(delays))
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("out of order: fired[%d]=%v < fired[%d]=%v", i, fired[i], i-1, fired[i-1])
			}
		}
		if want := Time(30 * time.Minute); fired[len(fired)-1] != want {
			t.Fatalf("last event at %v, want %v", fired[len(fired)-1], want)
		}
	})
}

// Stopping an overflow-heap event and rescheduling across the horizon
// must both work.
func TestOverflowStopAndReschedule(t *testing.T) {
	s := New()
	far := s.Schedule(time.Hour, func() { t.Error("stopped overflow event fired") })
	if got := len(s.q.overflow); got != 1 {
		t.Fatalf("overflow heap holds %d events, want 1", got)
	}
	if !far.Stop() {
		t.Fatal("Stop on overflow event returned false")
	}
	var at Time
	h := s.Schedule(time.Hour, func() { at = s.Now() })
	if !h.Reschedule(time.Millisecond) {
		t.Fatal("Reschedule across horizon returned false")
	}
	s.Run()
	if want := Time(time.Millisecond); at != want {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

func TestStats(t *testing.T) {
	s := New()
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("fresh Stats = %+v, want zero", st)
	}
	h := s.Schedule(time.Millisecond, func() {})
	s.Schedule(2*time.Millisecond, func() {})
	if st := s.Stats(); s.inUse() != 2 || st.Fired != 0 {
		t.Fatalf("Stats = %+v with %d arena entries, want 2 entries, Fired=0", st, s.inUse())
	}
	h.Stop()
	if s.inUse() != 1 {
		t.Fatalf("%d arena entries after Stop, want 1", s.inUse())
	}
	s.Run()
	if st := s.Stats(); s.inUse() != 0 || st.Fired != 1 {
		t.Fatalf("Stats after Run = %+v with %d arena entries, want 0 entries, Fired=1", st, s.inUse())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(time.Second)
	b := a.Add(500 * time.Millisecond)
	if b.Sub(a) != 500*time.Millisecond {
		t.Fatalf("Sub = %v, want 500ms", b.Sub(a))
	}
	if a.Seconds() != 1.0 {
		t.Fatalf("Seconds = %v, want 1.0", a.Seconds())
	}
	if a.String() != "1.000000s" {
		t.Fatalf("String = %q", a.String())
	}
}

// The steady-state timer cycle — schedule a package-level func with a
// pointer arg, reschedule it, let it fire — must not allocate. This is
// the foundation of the zero-alloc packet path.
func TestTimerCycleDoesNotAllocate(t *testing.T) {
	s := New()
	type peer struct{ n int }
	p := &peer{}
	fire := func(a any) { a.(*peer).n++ }
	// Warm the arena and the wheel's due slice.
	for i := 0; i < 64; i++ {
		s.ScheduleArg(time.Duration(i)*time.Millisecond, fire, p)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		h := s.ScheduleArg(time.Millisecond, fire, p)
		h.Reschedule(2 * time.Millisecond)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("timer schedule/reschedule/fire cycle allocated %.1f/op, want 0", allocs)
	}
}

// Property: events always fire in non-decreasing time order, regardless of
// the scheduling order of their delays.
func TestPropertyEventsFireInOrder(t *testing.T) {
	eachEngine(t, func(t *testing.T, _ *Simulator) {
		f := func(delays []uint16) bool {
			if len(delays) == 0 {
				return true
			}
			s := New()
			var times []Time
			for _, d := range delays {
				s.Schedule(time.Duration(d)*time.Microsecond, func() {
					times = append(times, s.Now())
				})
			}
			s.Run()
			if len(times) != len(delays) {
				return false
			}
			for i := 1; i < len(times); i++ {
				if times[i] < times[i-1] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: the wheel and the model fire the exact same events in the
// exact same order, including ties, stops, and reschedules.
func TestPropertyEnginesAgree(t *testing.T) {
	run := func(s engine, delays []uint32, stopEvery, reschedEvery uint8) []int {
		var order []int
		handles := make([]timer, len(delays))
		for i, d := range delays {
			i := i
			// Spread delays across slot, level, and overflow ranges
			// (up to ~34s, past the wheel horizon).
			handles[i] = s.schedule(time.Duration(d)*8, func() {
				order = append(order, i)
			})
		}
		for i, h := range handles {
			if stopEvery > 0 && i%int(stopEvery) == 0 {
				h.Stop()
			} else if reschedEvery > 0 && i%int(reschedEvery) == 0 {
				h.Reschedule(time.Duration(delays[(i+1)%len(delays)] % 1_000_000_000))
			}
		}
		s.Run()
		return order
	}
	f := func(delays []uint32, stopEvery, reschedEvery uint8) bool {
		if len(delays) == 0 {
			return true
		}
		wheel, model := bothEngines()
		a := run(wheel, delays, stopEvery, reschedEvery)
		b := run(model, delays, stopEvery, reschedEvery)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engines agree on timer chains, where each firing
// schedules the next timer from inside its callback. Unlike the
// all-upfront property above, chains move the cursor to unaligned
// positions before inserting, which is what exercises the parent-slot
// boundary discipline in the wheel's cascade (a level's scan window may
// extend past the parent's slot edge, and events parked in the parent's
// next slot interleave with the level's late bits).
func TestPropertyChainedTimersAgree(t *testing.T) {
	run := func(s engine, seeds []uint32) []Time {
		var order []Time
		for _, seed := range seeds {
			rng := NewRand(uint64(seed))
			hops := int(seed%8) + 2
			var step func()
			step = func() {
				order = append(order, s.Now())
				if hops == 0 {
					return
				}
				hops--
				// Delays spanning level-0 slots up to past the horizon.
				d := time.Duration(rng.Intn(20_000_000_000))
				s.schedule(d, step)
			}
			s.schedule(time.Duration(seed%1000)*time.Microsecond, step)
		}
		s.Run()
		return order
	}
	f := func(seeds []uint32) bool {
		if len(seeds) == 0 {
			return true
		}
		wheel, model := bothEngines()
		a := run(wheel, seeds)
		b := run(model, seeds)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fired always equals the number of scheduled minus stopped events
// after a full Run.
func TestPropertyFiredCount(t *testing.T) {
	f := func(n uint8, stopEvery uint8) bool {
		s := New()
		var handles []TimerHandle
		for i := 0; i < int(n); i++ {
			handles = append(handles, s.Schedule(time.Duration(i)*time.Microsecond, func() {}))
		}
		stopped := 0
		if stopEvery > 0 {
			for i, h := range handles {
				if i%int(stopEvery) == 0 {
					if h.Stop() {
						stopped++
					}
				}
			}
		}
		s.Run()
		return s.Stats().Fired == uint64(int(n)-stopped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered %d values in 1000 draws", len(seen))
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(9)
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(d, 0.1)
		if j < 90*time.Millisecond || j > 110*time.Millisecond {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
	if r.Jitter(d, 0) != d {
		t.Fatal("zero-fraction jitter changed duration")
	}
}
