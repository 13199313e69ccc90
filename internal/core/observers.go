package core

import (
	"os"
	"time"

	"repro/internal/causality"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// observers is everything one run is watched with: chosen from the
// run's options before the topology is built, then driven with the
// simulation and closed by finish. Nothing here schedules events, so an
// observed run measures byte-identically to an unobserved one.
type observers struct {
	// bus exists for the timeline, blame, flight recorder and stats;
	// layers is that bus when every layer publishes into it, and nil
	// when only the client's request spans are needed (stats alone).
	bus, layers *obs.Bus
	// keepCapture retains the packet events, for the caller or a dump.
	keepCapture bool
	capture     *trace.Capture
	blame       *causality.Collector
	// The flight recorder, when ring is non-nil: the recorder it dumps
	// through, the event tail, and whether the recovery watchdog fired.
	flight   *telemetry.Flight
	ring     *telemetry.Ring[obs.Event]
	watchdog bool
	detach   func()
}

func (cfg runConfig) observers(s *sim.Simulator) *observers {
	o := &observers{keepCapture: cfg.capture, flight: cfg.flight}
	flight := o.flight != nil
	if cfg.timeline || cfg.blame || flight || cfg.stats {
		o.bus = obs.New(s)
	}
	if cfg.timeline || cfg.blame || flight {
		o.layers = o.bus
	}
	if cfg.blame {
		o.blame = causality.NewCollector()
	}
	if flight {
		o.ring = telemetry.NewRing[obs.Event](telemetry.DefaultFlightEvents)
		o.keepCapture = true
	}
	if o.blame != nil || o.ring != nil {
		o.detach = o.bus.Subscribe(o.observe)
	}
	return o
}

// observe is the one bus subscriber, feeding the causality analyzer and
// the flight ring on the simulation goroutine.
func (o *observers) observe(ev obs.Event) {
	if o.blame != nil {
		o.blame.Observe(ev)
	}
	if o.ring != nil {
		o.ring.Push(ev)
		o.watchdog = o.watchdog || ev.Kind == obs.KindClientTimeout
	}
}

// drive runs the simulation to quiescence and returns its wall time. A
// panic is dumped by the flight recorder and re-raised, never swallowed.
func (o *observers) drive(s *sim.Simulator, sc Scenario, afterDrive func()) time.Duration {
	if o.ring != nil {
		defer func() {
			if r := recover(); r != nil {
				o.dump(sc, "panic")
				panic(r)
			}
		}()
	}
	start := time.Now()
	s.Run()
	if afterDrive != nil {
		afterDrive()
	}
	return time.Since(start)
}

// finish closes the observers after the drive: the flight recorder
// dumps a run that did not finish or whose watchdog fired, and a
// finished run gets its blame analysis (nil without WithBlame).
func (o *observers) finish(sc Scenario, finished bool) *causality.Analysis {
	if o.detach != nil {
		o.detach()
	}
	switch {
	case !finished:
		o.dump(sc, "error")
		return nil
	case o.watchdog:
		o.dump(sc, "watchdog")
	}
	if o.blame == nil {
		return nil
	}
	return o.blame.Finish(o.bus)
}

// dump writes the event tail and the packet capture through the flight
// recorder, which announces the dump in its directory's index.
func (o *observers) dump(sc Scenario, reason string) {
	if o.ring == nil {
		return
	}
	// A failed write is reported on the dump's index line; a dump never
	// fails the run it records.
	_ = o.flight.Dump(telemetry.DumpSource{
		Label: sc.String(), Reason: reason, Events: o.ring.Len(), Dropped: o.ring.Dropped(),
		Perfetto: func(w *os.File) error {
			return obs.WritePerfettoEvents(w, o.ring.Snapshot(), o.bus.Conns(), o.bus.Spans())
		},
		Pcap: func(w *os.File) error { return o.capture.WritePcap(w) },
	})
}
