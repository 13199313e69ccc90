package core

import (
	"sync/atomic"

	"repro/internal/exp"
	"repro/internal/webgen"
)

// seedFamilyStride separates the independent seed families a Sweep's
// Seeds knob adds. Family 0 uses the legacy single-family seed schedule
// unchanged, so Seeds=1 output is byte-identical to the historical code.
const seedFamilyStride = 1_000_003

// Sweep executes the repeated runs behind each experiment cell. The zero
// value performs a single serial run per cell; Runs and Seeds control
// the averaged population (Runs repetitions in each of Seeds seed
// families), Parallel the worker-pool width, and Collector — stamped
// with Experiment — gathers one exp.Metrics record per simulation run.
//
// Aggregation is deterministic and order-independent: runs are indexed,
// workers write into per-index slots, and averaging walks the slots in
// index order, so the same seeds give byte-identical tables at any
// Parallel level.
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
	// Blame runs every repetition with WithBlame, so each RunResult
	// carries the causal delay attribution and each collected record
	// the blame_*_ms / critical_path_ms columns.
	Blame bool
	// served, when non-nil, makes a table's cells share each repetition's
	// revised site: the first cell to run repetition i synthesizes it.
	served *[]*webgen.Site
}

// series executes the sweep's Runs×Seeds repetitions of sc, stepping the
// seed by stride between repetitions — each table keeps its historical
// stride so regenerated output matches the serial code — and by
// seedFamilyStride between families. Results are indexed by repetition.
func (sw Sweep) series(sc Scenario, site *webgen.Site, stride uint64) ([]*RunResult, error) {
	runs := max(sw.Runs, 1)
	n := runs * max(sw.Seeds, 1)
	results := make([]*RunResult, n)
	if sw.served != nil && *sw.served == nil {
		*sw.served = make([]*webgen.Site, n)
	}
	var metrics []*exp.Metrics
	if sw.Collector != nil {
		metrics = make([]*exp.Metrics, n)
	}
	// completed counts finished repetitions for the progress layer; the
	// run reaching n marks the cell done. The counter perturbs nothing:
	// it exists only when a progress consumer is installed.
	var completed atomic.Int64
	err := exp.ForEach(sw.Parallel, n, func(i int) error {
		family, rep := i/runs, i%runs
		one := sc
		one.Seed = sc.Seed + uint64(family)*seedFamilyStride + uint64(rep)*stride
		one.Jitter = n > 1
		var opts []Option
		if sw.served != nil {
			// Slot i is this repetition's alone, in every cell.
			opts = append(opts, func(c *runConfig) { c.served = &(*sw.served)[i] })
		}
		if metrics != nil {
			metrics[i] = &exp.Metrics{Experiment: sw.Experiment, Run: i}
			opts = append(opts, WithMetrics(metrics[i]))
		}
		if sw.Stats {
			opts = append(opts, WithStats())
		}
		if sw.Blame {
			opts = append(opts, WithBlame())
		}
		res, err := Run(one, site, opts...)
		if err != nil {
			return err
		}
		results[i] = res
		if exp.ProgressActive() {
			exp.NotifyProgress(exp.ProgressEvent{
				Experiment: sw.Experiment,
				Scenario:   sc.String(),
				Seed:       one.Seed,
				Run:        i,
				CellDone:   completed.Add(1) == int64(n),
				SimSeconds: res.Elapsed.Seconds(),
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sw.Collector != nil {
		for _, m := range metrics {
			sw.Collector.Add(*m)
		}
	}
	return results, nil
}

// RunAveraged executes the scenario across the sweep's population and
// averages the measurements, like the paper's five-run methodology.
func (sw Sweep) RunAveraged(sc Scenario, site *webgen.Site) (Avg, error) {
	results, err := sw.series(sc, site, 7919)
	if err != nil {
		return Avg{}, err
	}
	return Average(results), nil
}
