// Package telemetry is the live-observability layer of the harness: a
// fixed set of run and engine metrics that running sweeps publish into,
// a periodic sampler that snapshots them together with Go runtime
// memory/GC state into a JSON-lines time series (stream.go, sampler.go),
// an EWMA-based sweep progress reporter (progress.go), and a crash-dump
// flight recorder — a bounded ring buffer of the most recent internal/obs
// events, dumped as Perfetto JSON plus a synthetic pcap when a run
// panics, the client's fault-recovery watchdog fires, or a sweep cell
// errors (ring.go, flight.go).
//
// Everything here is off by default and strictly non-perturbing: the
// simulator's virtual-time behaviour, every golden table, metrics CSV,
// and pcap/Perfetto export is byte-identical with telemetry on or off
// (enforced by core's TestTelemetryDoesNotPerturb). Telemetry lives
// entirely in the wall-clock domain — it observes the simulation, never
// participates in it.
//
// The package holds no process state. cmd/httpperf builds one Monitor
// from -telemetry, -progress and -flight and hands it down to the runs
// it observes (exp.Session → core.Sweep → core.Run); a run without a
// monitor is unobserved.
package telemetry

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Monitor is one set of live observers. Every field is optional: a nil
// Stream means no JSON-lines records (and no engine polling), a nil
// Flight no crash dumps, a nil Progress no progress records or stderr
// line. Runs and the reporter publish into Metrics, which the sampler
// snapshots.
type Monitor struct {
	Stream   *Stream
	Flight   *Flight
	Progress *Reporter
	Metrics  Metrics
}

// Metrics is the fixed metric set a monitor's runs publish into. The
// counters are monotone totals; the pending and pool gauges sum signed
// deltas over the runs in flight; the wheel depth is a high-water mark.
// Every field is safe for concurrent use.
type Metrics struct {
	Runs      atomic.Int64 // runs_total: completed simulation runs
	Cells     atomic.Int64 // cells_total: completed sweep cells
	SimEvents atomic.Int64 // sim_events_total: engine events fired

	SimPending    atomic.Int64 // sim_pending: pending events, summed over active runs
	SimPoolInUse  atomic.Int64 // sim_pool_in_use: live timer-arena entries, summed
	SimWheelDepth atomic.Int64 // sim_wheel_depth: deepest populated wheel tier seen

	RunSimMS Hist // run_sim_ms: simulated run durations
}

// counters, gauges and hists name the metric set as a sample record
// carries it.
func (m *Metrics) counters() map[string]int64 {
	return map[string]int64{
		"runs_total":       m.Runs.Load(),
		"cells_total":      m.Cells.Load(),
		"sim_events_total": m.SimEvents.Load(),
	}
}

func (m *Metrics) gauges() map[string]int64 {
	return map[string]int64{
		"sim_pending":     m.SimPending.Load(),
		"sim_pool_in_use": m.SimPoolInUse.Load(),
		"sim_wheel_depth": m.SimWheelDepth.Load(),
	}
}

func (m *Metrics) hists() map[string]HistSnapshot {
	return map[string]HistSnapshot{"run_sim_ms": m.RunSimMS.Snapshot()}
}

// setMax raises g to v if v exceeds its current value.
func setMax(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Hist is a concurrency-safe wrapper around the mergeable log-bucketed
// stats.Histogram, for value distributions (run durations, dump sizes).
type Hist struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// HistSnapshot is the summary a sampler record carries per histogram.
type HistSnapshot struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// Snapshot summarizes the histogram's current population.
func (h *Hist) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Count: h.h.Count(),
		P50:   h.h.Quantile(0.50),
		P90:   h.h.Quantile(0.90),
		P99:   h.h.Quantile(0.99),
		Max:   h.h.Max(),
	}
}
