package sim

import "sort"

// model is the reference the timer wheel is checked against: every
// pending event in one slice kept sorted by (when, seq), nothing else.
// It shares no code with wheel.go or sim.go, so an ordering bug in
// either cannot hide in both.
type model struct {
	now    Time
	seq    uint64
	nfired uint64
	nextID int
	events []modelEvent
}

type modelEvent struct {
	when Time
	seq  uint64
	id   int
	fn   func()
}

// modelTimer is the model's TimerHandle: live while its id is queued.
type modelTimer struct {
	m  *model
	id int
}

func (m *model) Now() Time { return m.now }

// put queues fn at now+delay behind every event already due then.
func (m *model) put(id int, delay Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	m.seq++
	ev := modelEvent{when: m.now + Time(delay), seq: m.seq, id: id, fn: fn}
	// seq is the largest so far: the slot is after the last event with
	// when <= ev.when.
	i := sort.Search(len(m.events), func(i int) bool { return m.events[i].when > ev.when })
	m.events = append(m.events, modelEvent{})
	copy(m.events[i+1:], m.events[i:])
	m.events[i] = ev
}

// take unqueues the event with the given id, if it is still pending.
func (m *model) take(id int) (modelEvent, bool) {
	for i, ev := range m.events {
		if ev.id == id {
			m.events = append(m.events[:i], m.events[i+1:]...)
			return ev, true
		}
	}
	return modelEvent{}, false
}

func (m *model) schedule(delay Duration, fn func()) timer {
	m.nextID++
	m.put(m.nextID, delay, fn)
	return modelTimer{m, m.nextID}
}

func (t modelTimer) Stop() bool {
	_, ok := t.m.take(t.id)
	return ok
}

func (t modelTimer) Reschedule(delay Duration) bool {
	ev, ok := t.m.take(t.id)
	if ok {
		t.m.put(ev.id, delay, ev.fn)
	}
	return ok
}

func (m *model) Step() bool {
	if len(m.events) == 0 {
		return false
	}
	ev := m.events[0]
	m.events = m.events[1:]
	m.now = ev.when
	m.nfired++
	ev.fn()
	return true
}

func (m *model) Run() {
	for m.Step() {
	}
}

func (m *model) RunUntil(t Time) {
	for len(m.events) > 0 && m.events[0].when <= t {
		m.Step()
	}
	if m.now < t {
		m.now = t
	}
}

// engine and timer are the surface the differential properties and the
// fuzz interpreter drive, so one program runs on the Simulator and on
// the model.
type engine interface {
	Now() Time
	schedule(delay Duration, fn func()) timer
	Step() bool
	Run()
	RunUntil(Time)
	fired() uint64
}

type timer interface {
	Stop() bool
	Reschedule(Duration) bool
}

func (m *model) fired() uint64 { return m.nfired }

// wheelEngine adapts the Simulator to engine.
type wheelEngine struct{ *Simulator }

func (w wheelEngine) schedule(d Duration, fn func()) timer { return w.Schedule(d, fn) }
func (w wheelEngine) fired() uint64                        { return w.Stats().Fired }

// bothEngines returns a fresh Simulator and a fresh model.
func bothEngines() (engine, engine) { return wheelEngine{New()}, &model{} }
