package sim

// Conveniences only the tests use.

// When returns the instant the event will fire, and whether the handle
// is still pending.
func (h TimerHandle) When() (Time, bool) {
	if e := h.ent(); e != nil {
		return e.when, true
	}
	return 0, false
}

// RunFor executes events for d of virtual time from now.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// inUse returns the live timer-arena entries: the events scheduled and
// not yet fired or stopped.
func (s *Simulator) inUse() int { return len(s.ents) - len(s.free) }
