package core

import (
	"os"
	"slices"
	"time"

	"repro/internal/causality"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// observers is everything one run is watched with: chosen from the
// run's options before the topology is built, and read after the drive,
// when the flight recorder dumps and blame analyses the run's record.
// Nothing here schedules events, so an observed run measures
// byte-identically to an unobserved one.
type observers struct {
	// bus exists for the timeline, blame, flight recorder and stats;
	// layers is that bus when every layer publishes into it, and nil
	// when only the client's request spans are needed (stats alone).
	bus, layers *obs.Bus
	// keepCapture retains the packet events, for the caller, the
	// timeline's link tracks or a dump.
	keepCapture bool
	capture     *trace.Capture
	blame       bool
	flight      *telemetry.Flight
}

func (cfg runConfig) observers(s *sim.Simulator) *observers {
	flight := cfg.flight != nil
	o := &observers{keepCapture: cfg.capture || cfg.timeline || flight, blame: cfg.blame, flight: cfg.flight}
	if cfg.timeline || cfg.blame || flight || cfg.stats {
		o.bus = obs.New(s)
	}
	if cfg.timeline || cfg.blame || flight {
		o.layers = o.bus
	}
	return o
}

// drive runs the simulation to quiescence and returns its wall time. A
// panic is dumped by the flight recorder and re-raised, never swallowed.
func (o *observers) drive(s *sim.Simulator, sc Scenario, afterDrive func()) time.Duration {
	if o.flight != nil {
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

// finish reads the run's record after the drive: the flight recorder
// dumps a run that did not finish or whose recovery watchdog fired, and
// a finished run gets its blame analysis (nil without WithBlame).
func (o *observers) finish(sc Scenario, finished bool) *causality.Analysis {
	switch {
	case !finished:
		o.dump(sc, "error")
		return nil
	case o.flight != nil && slices.ContainsFunc(o.bus.Events(), isClientTimeout):
		o.dump(sc, "watchdog")
	}
	if !o.blame {
		return nil
	}
	return causality.Analyze(o.bus)
}

func isClientTimeout(ev obs.Event) bool { return ev.Kind == obs.KindClientTimeout }

// dump writes the run's last telemetry.DefaultFlightEvents bus events
// and its packet capture through the flight recorder, which announces
// the dump in its directory's index.
func (o *observers) dump(sc Scenario, reason string) {
	if o.flight == nil {
		return
	}
	kept := min(o.bus.Len(), telemetry.DefaultFlightEvents)
	// A failed write is reported on the dump's index line; a dump never
	// fails the run it records.
	_ = o.flight.Dump(telemetry.DumpSource{
		Label: sc.String(), Reason: reason, Events: kept, Dropped: o.bus.Len() - kept,
		Perfetto: func(w *os.File) error {
			return o.bus.WritePerfettoTail(w, kept)
		},
		Pcap: func(w *os.File) error { return o.capture.WritePcap(w) },
	})
}
