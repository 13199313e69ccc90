package core

import (
	"fmt"
	"slices"

	"repro/internal/exp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/webgen"
)

// GridRow is one declared table row: the labels it prints under and the
// complete scenario, seed included, of each of its cells — one per
// workload in the two-workload layouts, otherwise one.
type GridRow struct {
	Labels []any
	Cells  []Scenario
}

// Grid is an experiment's scenario population as a value, so that it can
// be enumerated and replayed as well as run.
type Grid struct {
	Rows []GridRow
	// Stride steps the seed between a cell's repetitions. Each table keeps
	// the stride it has always used, so regenerated output matches the
	// code that once looped over it by hand.
	Stride uint64
	// Stats and Blame arm, on every run, the observers the table's
	// columns read: RunResult.Latency and RunResult.Blame.
	Stats, Blame bool
}

// Measured is a GridRow after its cells ran: Results[k] holds cell k's
// repetitions, in repetition order (Sweep.Measure).
type Measured struct {
	Labels  []any
	Results [][]*RunResult
}

// sharesRevisions reports a grid whose every cell revisits the same
// revised sites — one seed, one fraction — as the range-probe strategies
// do so that the same objects change under each.
func (g Grid) sharesRevisions() bool {
	if len(g.Rows) == 0 || g.Rows[0].Cells[0].ReviseFraction <= 0 {
		return false
	}
	first := g.Rows[0].Cells[0]
	return !slices.ContainsFunc(g.Rows, func(r GridRow) bool {
		return slices.ContainsFunc(r.Cells, func(sc Scenario) bool {
			return sc.Seed != first.Seed || sc.ReviseFraction != first.ReviseFraction
		})
	})
}

// Measure runs every cell of the grid across the sweep's population: the
// sweep's Runs×Seeds repetitions of each cell, the seed stepped by the
// grid's Stride between repetitions and by seedFamilyStride between
// families. The whole grid — every (row, cell, repetition) — is one job
// list on the pool, so no cell waits for the previous one to drain.
// Collected records and results keep (row, cell, repetition) order.
// Cells that share their revisions synthesize each repetition's revised
// site once, in whichever cell runs that repetition first.
func (sw Sweep) Measure(g Grid, site *webgen.Site) ([]Measured, error) {
	reps := max(sw.Runs, 1) * max(sw.Seeds, 1)
	type cell struct {
		sc      Scenario
		results []*RunResult
	}
	var cells []*cell
	out := make([]Measured, len(g.Rows))
	for i, row := range g.Rows {
		out[i] = Measured{Labels: row.Labels, Results: make([][]*RunResult, len(row.Cells))}
		for k, sc := range row.Cells {
			c := &cell{sc: sc, results: make([]*RunResult, reps)}
			out[i].Results[k] = c.results
			cells = append(cells, c)
		}
	}
	var revisions []revision
	if g.sharesRevisions() {
		revisions = make([]revision, reps)
	}
	var metrics []exp.Metrics
	if sw.Collector != nil {
		metrics = make([]exp.Metrics, len(cells)*reps)
	}
	err := sim.ForEach(sw.Parallel, len(cells)*reps, func(j int) error {
		c, i := cells[j/reps], j%reps
		one := sw.Repetition(g, c.sc, i)
		var opts []Option
		if revisions != nil {
			// Slot i is repetition i's in every cell.
			opts = append(opts, func(cfg *runConfig) { cfg.revision = &revisions[i] })
		}
		if metrics != nil {
			metrics[j] = exp.Metrics{Experiment: sw.Experiment, Run: i}
			opts = append(opts, WithMetrics(&metrics[j]))
		}
		if sw.Stats || g.Stats {
			opts = append(opts, WithStats())
		}
		if g.Blame {
			opts = append(opts, WithBlame())
		}
		if sw.Flight != nil {
			opts = append(opts, WithFlight(sw.Flight))
		}
		res, err := Run(one, site, opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", c.sc, err)
		}
		c.results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range metrics {
		sw.Collector.Add(m)
	}
	return out, nil
}

// The three reducers every table column is built from.

// Mean averages f over a cell's repetitions, summed in index order.
func Mean(results []*RunResult, f func(*RunResult) float64) float64 {
	var sum float64
	for _, res := range results {
		sum += f(res)
	}
	return sum / float64(len(results))
}

// Summarize reduces f over a cell's repetitions to mean ± Student-t 95%
// confidence interval.
func Summarize(results []*RunResult, f func(*RunResult) float64) stats.Summary {
	xs := make([]float64, len(results))
	for i, res := range results {
		xs[i] = f(res)
	}
	return stats.Summarize(xs)
}

// MergedLatency merges the per-request latency histograms of a cell's
// repetitions (runs under Stats).
func MergedLatency(results []*RunResult) *stats.LatencySet {
	var lat stats.LatencySet
	for _, res := range results {
		lat.Merge(res.Latency)
	}
	return &lat
}

// Packets, PayloadBytes and Seconds are the paper's per-run quantities,
// as the reducers take them.
func Packets(res *RunResult) float64      { return float64(res.Stats.Packets) }
func PayloadBytes(res *RunResult) float64 { return float64(res.Stats.PayloadBytes) }
func Seconds(res *RunResult) float64      { return res.Elapsed.Seconds() }

// Average reduces a cell's repetitions to the paper's per-cell
// measurement; the overhead percentage is that of the averaged cell.
func Average(results []*RunResult) Avg {
	avg := Avg{Runs: len(results), Cell: Cell{
		Packets: Mean(results, Packets),
		Bytes:   Mean(results, PayloadBytes),
		Seconds: Mean(results, Seconds),
	}}
	hdr := float64(avg.Packets * netem.IPTCPHeaderBytes) // rounded before the sum: no fused multiply-add
	if total := avg.Bytes + hdr; total > 0 {
		avg.OverheadPct = 100 * hdr / total
	}
	return avg
}
