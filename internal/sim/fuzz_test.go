package sim

import (
	"fmt"
	"testing"
)

// FuzzWheelAgainstModel interprets its input as a program of timer
// operations, runs it on a Simulator and on the sorted-slice model, and
// requires the same trace from both: which event fired when, what every
// Stop and Reschedule returned, the clock after every step, and the
// final fired count.
//
// The program is read left to right, one op byte (mod 6) then its
// operands:
//
//	0,1  schedule <delay> <action>
//	2    stop <timer>
//	3    reschedule <timer> <delay>
//	4    step
//	5    run until now+<delay>
//
// and ends with Run. <delay> is two bytes, a 3-bit class and a 13-bit
// mantissa (see delay). <timer> is one byte indexing, modulo their
// count, the timers scheduled so far. <action> is what the event does
// when it fires, fixed at schedule time so the program does not depend
// on firing order: one byte (mod 4) for nothing, schedule <delay>
// <action> (nested up to maxDepth), stop <timer>, or reschedule
// <timer> <delay>.
func FuzzWheelAgainstModel(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		wheel, model := bothEngines()
		got, want := runProgram(wheel, program), runProgram(model, program)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("trace[%d]: wheel %v, model %v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("wheel trace has %d records, model %d", len(got), len(want))
		}
		if wheel.fired() != model.fired() {
			t.Fatalf("fired: wheel %d, model %d", wheel.fired(), model.fired())
		}
	})
}

const (
	opSchedule = iota
	_          // also schedule: the common op
	opStop
	opResched
	opStep
	opRunUntil
)

const (
	actNone = iota
	actSchedule
	actStop
	actResched
)

const maxDepth = 6

// rec is one trace record: event id fired (what >= 0), or a top-level
// step/run-until (recClock), or a Stop/Reschedule that returned false
// or true, each stamped with the clock.
type rec struct {
	what int
	at   Time
}

const (
	recClock = -1 - iota
	recFalse
	recTrue
)

func (r rec) String() string {
	switch r.what {
	case recClock:
		return fmt.Sprintf("clock@%dns", r.at)
	case recFalse, recTrue:
		return fmt.Sprintf("%v@%dns", r.what == recTrue, r.at)
	}
	return fmt.Sprintf("fire#%d@%dns", r.what, r.at)
}

// action is what a scheduled event does when it fires.
type action struct {
	kind   int
	delay  Duration
	target int
	child  *action // the scheduled event's own action, for actSchedule
}

type program struct {
	b []byte
	i int
}

// next returns the next program byte, or 0 past the end.
func (p *program) next() int {
	if p.i >= len(p.b) {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

// delay decodes a class and mantissa into a duration: zero, inside one
// level-0 slot, one scale per wheel level, the overflow heap, either
// side of a slot edge of each level, and either side of the horizon.
func (p *program) delay() Duration {
	c, m := p.next(), p.next()
	class, mant := c&7, Duration(c>>3<<8|m)
	switch class {
	case 0:
		return 0
	case 1:
		return mant
	case 2, 3, 4, 5:
		return mant << wheelShift(class-2)
	case 6:
		level, slots, off := int(mant&3), 1+(mant>>4)&wheelSlotMask, (mant>>2)&3-1
		return slots<<wheelShift(level) + off
	default:
		horizon := Duration(wheelSlots) << wheelShift(wheelLevels-1)
		return horizon + mant - 4096
	}
}

func (p *program) action(depth int) *action {
	a := &action{kind: p.next() & 3}
	switch a.kind {
	case actNone:
		return nil
	case actSchedule:
		a.delay = p.delay()
		if depth < maxDepth {
			a.child = p.action(depth + 1)
		}
	case actStop:
		a.target = p.next()
	case actResched:
		a.target, a.delay = p.next(), p.delay()
	}
	return a
}

// runProgram executes b on e and returns the trace.
func runProgram(e engine, b []byte) []rec {
	p := &program{b: b}
	var trace []rec
	var timers []timer
	note := func(ok bool) {
		what := recFalse
		if ok {
			what = recTrue
		}
		trace = append(trace, rec{what, e.Now()})
	}
	stop := func(target int) {
		if len(timers) > 0 {
			note(timers[target%len(timers)].Stop())
		}
	}
	resched := func(target int, d Duration) {
		if len(timers) > 0 {
			note(timers[target%len(timers)].Reschedule(d))
		}
	}
	var schedule func(d Duration, a *action)
	schedule = func(d Duration, a *action) {
		id := len(timers)
		timers = append(timers, e.schedule(d, func() {
			trace = append(trace, rec{id, e.Now()})
			if a == nil {
				return
			}
			switch a.kind {
			case actSchedule:
				schedule(a.delay, a.child)
			case actStop:
				stop(a.target)
			case actResched:
				resched(a.target, a.delay)
			}
		}))
	}
	for p.i < len(p.b) {
		switch op := p.next() % 6; op {
		case opStop:
			stop(p.next())
		case opResched:
			resched(p.next(), p.delay())
		case opStep:
			e.Step()
			trace = append(trace, rec{recClock, e.Now()})
		case opRunUntil:
			e.RunUntil(e.Now().Add(p.delay()))
			trace = append(trace, rec{recClock, e.Now()})
		default:
			schedule(p.delay(), p.action(0))
		}
	}
	e.Run()
	return append(trace, rec{recClock, e.Now()})
}

// asm assembles a program from op/action/timer bytes (ints) and
// encoded delays ([]byte).
func asm(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = append(b, byte(p))
		case []byte:
			b = append(b, p...)
		}
	}
	return b
}

// encDelay is the inverse of program.delay for classes 0-5.
func encDelay(class int, mant uint64) []byte {
	mant &= 1<<13 - 1
	return []byte{byte(class) | byte(mant>>8)<<3, byte(mant)}
}

// fuzzSeeds builds the corpus from the shapes of the three property
// generators in sim_test.go, plus the case they cannot reach: events
// scheduled from a callback into the slot that is draining.
func fuzzSeeds() [][]byte {
	rng := NewRand(1)
	anyDelay := func() []byte { return encDelay(1+rng.Intn(5), rng.Uint64()) }

	// TestPropertyEventsFireInOrder: microsecond delays, all up front.
	var upfront []byte
	for i := 0; i < 40; i++ {
		upfront = append(upfront, asm(opSchedule, encDelay(2, rng.Uint64()), actNone)...)
	}

	// TestPropertyEnginesAgree: delays across every level and the
	// overflow heap, then every third timer stopped and every second
	// of the rest rescheduled.
	var stops []byte
	for i := 0; i < 40; i++ {
		stops = append(stops, asm(opSchedule, anyDelay(), actNone)...)
	}
	for i := 0; i < 40; i++ {
		if i%3 == 0 {
			stops = append(stops, asm(opStop, i)...)
		} else if i%2 == 0 {
			stops = append(stops, asm(opResched, i, anyDelay())...)
		}
	}

	// TestPropertyChainedTimersAgree: chains whose every hop is
	// scheduled from the previous hop's callback.
	var chains []byte
	for i := 0; i < 12; i++ {
		chains = append(chains, asm(opSchedule, encDelay(2, rng.Uint64()))...)
		for hop := 0; hop < 2+i%5; hop++ {
			chains = append(chains, asm(actSchedule, anyDelay())...)
		}
		chains = append(chains, actNone)
	}

	// Two events in one level-0 slot, at 100 and 900 ns: the first,
	// when it fires, schedules a zero-delay event which schedules one
	// 200 ns out, and both belong before the second in the draining
	// due window. Then, by steps, a stop and a reschedule inside the
	// window.
	ns := func(n uint64) []byte { return encDelay(1, n) }
	due := asm(
		opSchedule, ns(100), actSchedule, encDelay(0, 0), actSchedule, ns(200), actNone,
		opSchedule, ns(900), actNone,
		opStep,
		opSchedule, ns(300), actStop, 1,
		opStep,
		opResched, 4, ns(50),
		opRunUntil, ns(10),
	)

	return [][]byte{upfront, stops, chains, due}
}
