package report

import (
	"fmt"
	"io"

	"repro/internal/causality"
	"repro/internal/obs"
)

// blameVector formats a Blame as one "cat=ms" line, every category
// shown so the conservation sum can be eyeballed.
func blameVector(b causality.Blame) string {
	s := ""
	for c := causality.Category(0); c < causality.NumCategories; c++ {
		if c > 0 {
			s += "  "
		}
		s += fmt.Sprintf("%s=%.1f", c, b.Ms(c))
	}
	return s
}

// BlameSummary prints the run-level attribution totals the
// blame-annotated waterfall rows sum to, plus the critical-path
// length. Totals are request-milliseconds: concurrent requests each
// count their own wait, so the sum equals summed per-request elapsed
// time, not wall time.
func BlameSummary(w io.Writer, a *causality.Analysis) {
	line(w, "Attribution totals over %d requests (request-ms; sum = %.1f = summed elapsed %.1f):",
		len(a.Requests), float64(a.Total.Sum())/1e6, float64(a.Elapsed)/1e6)
	line(w, "  %s", blameVector(a.Total))
	line(w, "critical path: %.1f ms over %d gating requests", float64(a.CriticalPath)/1e6, len(a.Chain))
	if a.PathErr != nil {
		line(w, "critical path incomplete: %v", a.PathErr)
	}
}

// pathRow joins one critical-path link with its request's identity.
type pathRow struct {
	link causality.ChainLink
	path string
}

// CriticalPath renders the page-load gating chain earliest-first: one
// row per binding constraint, the interval it gated, and — as the
// footer — the chain's own blame partition (which sums exactly to the
// path length).
func CriticalPath(w io.Writer, a *causality.Analysis) {
	paths := make(map[obs.SpanID]string, len(a.Requests))
	for _, r := range a.Requests {
		paths[r.Span] = r.Path
	}
	rows := make([]pathRow, len(a.Chain))
	for i, l := range a.Chain {
		rows[i] = pathRow{link: l, path: paths[l.Span]}
	}
	s := Spec[pathRow]{
		Title: fmt.Sprintf("Page-load critical path: %.1f ms across %d gating requests",
			float64(a.CriticalPath)/1e6, len(a.Chain)),
		Width: 76,
		Cols: []Col[pathRow]{
			{Head: "#", Format: "%3d", Value: func(r pathRow) any { return int(r.link.Span) }},
			{Head: "path", Format: "%-30s", Value: func(r pathRow) any { return r.path }},
			{Head: "from s", Format: "%9.3f", Value: func(r pathRow) any { return r.link.From.Seconds() }},
			{Head: "to s", Format: "%9.3f", Value: func(r pathRow) any { return r.link.To.Seconds() }},
			{Head: "len ms", Format: "%9.1f", Value: func(r pathRow) any { return float64(r.link.To.Sub(r.link.From)) / 1e6 }},
		},
		Footer: func() []string {
			return []string{"blame on the path (ms): " + blameVector(a.CriticalBlame)}
		},
	}
	s.Render(w, rows)
}
