package telemetry

import (
	"runtime"
	"time"
)

// PollEvents is how many engine events fire between telemetry
// safe-point polls inside a run (sim.RunWithPoll). At the wheel's
// ~20M events/sec this is a poll every millisecond or so — frequent
// enough for live gauges, far too coarse to show up in profiles.
const PollEvents = 16384

// SimTracker publishes one running simulation's engine statistics into
// a metric set. Each concurrently running simulation owns a tracker; the
// event counter receives deltas (so the total aggregates across runs)
// and the pending/pool gauges receive signed deltas (so their values are
// sums over the currently active runs). Poll is called from the
// simulation goroutine at safe-points between events, so reading engine
// state is race-free by construction.
type SimTracker struct {
	m           *Metrics
	lastFired   uint64
	lastPending int
	lastPool    int
}

// NewSimTracker returns a tracker publishing into m.
func NewSimTracker(m *Metrics) *SimTracker { return &SimTracker{m: m} }

// Poll publishes the deltas since the previous poll.
func (t *SimTracker) Poll(fired uint64, pending, wheelDepth, poolInUse int) {
	t.m.SimEvents.Add(int64(fired - t.lastFired))
	t.lastFired = fired
	t.m.SimPending.Add(int64(pending - t.lastPending))
	t.lastPending = pending
	t.m.SimPoolInUse.Add(int64(poolInUse - t.lastPool))
	t.lastPool = poolInUse
	setMax(&t.m.SimWheelDepth, int64(wheelDepth))
}

// Finish publishes the final deltas and withdraws this run's
// contribution from the aggregate gauges.
func (t *SimTracker) Finish(fired uint64) {
	t.m.SimEvents.Add(int64(fired - t.lastFired))
	t.lastFired = fired
	t.m.SimPending.Add(int64(-t.lastPending))
	t.lastPending = 0
	t.m.SimPoolInUse.Add(int64(-t.lastPool))
	t.lastPool = 0
}

// Sampler periodically snapshots a metric set plus Go runtime memory
// and GC state into a stream as sample records. Start it once per
// process; Close flushes a final sample so even sweeps shorter than one
// interval leave at least one snapshot in the stream.
type Sampler struct {
	st       *Stream
	m        *Metrics
	interval time.Duration

	stop chan struct{}
	done chan struct{}

	lastEvents int64
	lastWallMS float64
	ewma       float64
}

// ewmaAlpha weights the newest rate observation in the events/sec EWMA.
const ewmaAlpha = 0.3

// StartSampler launches the sampling goroutine, emitting one sample
// record of m per interval (minimum 10ms) into st.
func StartSampler(st *Stream, m *Metrics, interval time.Duration) *Sampler {
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	s := &Sampler{
		st:       st,
		m:        m,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.sample()
		case <-s.stop:
			s.sample() // final snapshot: short sweeps still get one
			return
		}
	}
}

// sample emits one snapshot record.
func (s *Sampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	wall := s.st.WallMS()
	counters := s.m.counters()
	events := counters["sim_events_total"]
	if dt := (wall - s.lastWallMS) / 1000; dt > 0 {
		inst := float64(events-s.lastEvents) / dt
		if s.ewma == 0 {
			s.ewma = inst
		} else {
			s.ewma = ewmaAlpha*inst + (1-ewmaAlpha)*s.ewma
		}
	}
	s.lastEvents = events
	s.lastWallMS = wall

	s.st.Emit(SampleRecord{
		T:               RecordSample,
		WallMS:          wall,
		HeapAllocBytes:  ms.HeapAlloc,
		HeapObjects:     ms.HeapObjects,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		GCPauseTotalMS:  float64(ms.PauseTotalNs) / 1e6,
		Goroutines:      runtime.NumGoroutine(),
		Counters:        counters,
		Gauges:          s.m.gauges(),
		Hists:           s.m.hists(),
		SimEventsPerSec: s.ewma,
	})
}

// Close stops the sampling goroutine after one final sample and waits
// for it to exit.
func (s *Sampler) Close() {
	close(s.stop)
	<-s.done
}
