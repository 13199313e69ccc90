package core

import (
	"repro/internal/exp"
	"repro/internal/telemetry"
)

// seedFamilyStride separates the independent seed families a Sweep's
// Seeds knob adds. Family 0 uses the legacy single-family seed schedule
// unchanged, so Seeds=1 output is byte-identical to the historical code.
const seedFamilyStride = 1_000_003

// Sweep executes the repeated runs behind each experiment cell. The zero
// value performs a single serial run per cell; Runs and Seeds control
// the averaged population (Runs repetitions in each of Seeds seed
// families), Parallel the worker-pool width, Collector — stamped with
// Experiment — gathers one exp.Metrics record per simulation run, and
// Flight arms the flight recorder on every run.
//
// Aggregation is deterministic and order-independent: runs are indexed,
// workers write into per-index slots, and averaging walks the slots in
// index order, so the same seeds give byte-identical tables at any
// Parallel level. Measure runs a whole grid this way.
type Sweep struct {
	Runs     int
	Seeds    int
	Parallel int
	// Experiment names the registry entry on collected metrics records.
	Experiment string
	// Collector, when non-nil, receives one record per simulation run.
	Collector *exp.Collector
	// Stats runs every repetition with WithStats, so each RunResult
	// carries per-request latency distributions and each collected
	// record its Dist quantiles.
	Stats bool
	// Flight, when non-nil, runs every repetition with WithFlight.
	Flight *telemetry.Flight
}

// Repetition is the scenario the sweep runs as repetition i of cell sc
// in grid g: the seed stepped by the grid's Stride between runs and by
// seedFamilyStride between seed families, and jittered when the
// population holds more than one run, reproducing the run-to-run
// variation the paper averaged away.
func (sw Sweep) Repetition(g Grid, sc Scenario, i int) Scenario {
	runs := max(sw.Runs, 1)
	sc.Seed += uint64(i/runs)*seedFamilyStride + uint64(i%runs)*g.Stride
	sc.Jitter = runs*max(sw.Seeds, 1) > 1
	return sc
}
