package report

import (
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/stats"
)

// MeanCI formats a mean with its 95% confidence-interval half-width as
// the conventional "m ± c" cell. A zero-width interval (single sample)
// renders the mean alone, so unreplicated tables stay clean.
func MeanCI(s stats.Summary, prec int) string {
	if s.CI95 == 0 {
		return fmt.Sprintf("%.*f", prec, s.Mean)
	}
	return fmt.Sprintf("%.*f ±%.*f", prec, s.Mean, prec, s.CI95)
}

// CI is a mean ± 95% CI table cell: under a %s verb it prints as MeanCI
// does, at Prec decimals, and it marshals as its Summary.
type CI struct {
	stats.Summary
	Prec int `json:"-"`
}

func (c CI) String() string { return MeanCI(c.Summary, c.Prec) }

// Cells renders the cross-seed per-cell aggregates a collector
// accumulated over any experiment mix: mean ± 95% CI for elapsed time
// and packets, plus the averaged latency quantiles where runs collected
// them (empty cells otherwise).
func Cells(w io.Writer, cells []exp.CellStats) {
	lat := func(c exp.CellStats, key string) string {
		v, ok := c.Dist[key]
		if !ok {
			return ""
		}
		return fmt.Sprintf("%.1f", v)
	}
	s := Spec[exp.CellStats]{
		Title: "Per-cell statistics (mean ± Student-t 95% CI across collected runs; latency quantiles [ms] where recorded)",
		Width: 148,
		Cols: []Col[exp.CellStats]{
			{Head: "exp", Format: "%-9s", Value: func(c exp.CellStats) any { return c.Experiment }},
			{Head: "scenario", Format: "%-64s", Value: func(c exp.CellStats) any { return c.Scenario }},
			{Head: "N", Format: "%3d", Value: func(c exp.CellStats) any { return c.N }},
			{Head: "Sec", Format: "%15s", Value: func(c exp.CellStats) any { return MeanCI(c.Elapsed, 2) }},
			{Head: "Pa", Format: "%15s", Value: func(c exp.CellStats) any { return MeanCI(c.Packets, 1) }},
			{Head: "p50", Format: "%8s", Value: func(c exp.CellStats) any { return lat(c, "lat_total_ms_p50") }},
			{Head: "p90", Format: "%8s", Value: func(c exp.CellStats) any { return lat(c, "lat_total_ms_p90") }},
			{Head: "p99", Format: "%8s", Value: func(c exp.CellStats) any { return lat(c, "lat_total_ms_p99") }},
		},
	}
	s.Render(w, cells)
}
