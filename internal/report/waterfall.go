package report

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/causality"
	"repro/internal/obs"
	"repro/internal/sim"
)

// wfLegend is the single definition of the waterfall flag vocabulary —
// the table title (and anything else describing the flags) derives
// from it rather than repeating it.
const wfLegend = "+ reused conn, ! retried, p pushed, x abandoned, * on critical path"

// fixedNs renders float64(ns)/10^unit to prec decimals (prec < unit),
// byte for byte what fmt's %.<prec>f verb gives for that quotient.
// Below 1e15 ns the quotient is within 10^-unit of ns/10^unit, so unless
// the discarded digits are exactly one half — where the side the binary
// quotient falls on decides — the rounding can be done on the integer,
// which is several times cheaper than strconv's fixed-precision path.
func fixedNs(ns int64, unit, prec int) string {
	pow := [...]int64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	step := pow[unit-prec]
	q, r := ns/step, ns%step
	if ns < 0 || ns >= 1e15 || 2*r == step {
		return strconv.FormatFloat(float64(ns)/float64(pow[unit]), 'f', prec, 64)
	}
	if 2*r > step {
		q++
	}
	var buf [24]byte
	b := append(strconv.AppendInt(buf[:0], q/pow[prec], 10), '.')
	for frac, p := q%pow[prec], prec-1; p >= 0; p-- {
		b = append(b, byte('0'+frac/pow[p]%10))
	}
	return string(b)
}

// wfSec renders an instant as seconds, "-" when never recorded.
func wfSec(t sim.Time) string {
	if t == obs.NoTime {
		return "-"
	}
	return fixedNs(int64(t), 9, 3)
}

// wfDur renders a duration in milliseconds, "-" when underlying
// instants are missing.
func wfDur(d sim.Duration) string {
	if d < 0 {
		return "-"
	}
	return fixedNs(int64(d), 6, 1)
}

// wfStatus renders the status code, "-" for abandoned spans.
func wfStatus(r obs.WaterfallRow) string {
	if r.Done == obs.NoTime {
		return "-"
	}
	return fmt.Sprintf("%d", r.Status)
}

// wfVia renders the intermediary that issued the request, "-" for the
// client's own requests.
func wfVia(r obs.WaterfallRow) string {
	if r.Via == "" {
		return "-"
	}
	return r.Via
}

// wfFlags marks each row with the wfLegend vocabulary. An x row's
// request was lost and, when the retry budget allowed, re-issued as a
// later row marked !; a row flagged both p and x was pushed but never
// used, i.e. wasted push bytes. The * flag appears only on waterfalls
// rendered with an attribution analysis.
func wfFlags(r obs.WaterfallRow, onPath bool) string {
	s := ""
	if r.Reused {
		s += "+"
	}
	if r.Retried {
		s += "!"
	}
	if r.Pushed {
		s += "p"
	}
	if r.Done == obs.NoTime {
		s += "x"
	}
	if onPath {
		s += "*"
	}
	return s
}

// wfRow pairs a waterfall row with its optional blame breakdown.
type wfRow struct {
	obs.WaterfallRow
	blame  *causality.RequestBlame
	onPath bool
}

// wfBlameMs renders one blame category, "-" for rows the analysis does
// not cover (abandoned spans, proxy upstream hops).
func wfBlameMs(r wfRow, c causality.Category) string {
	if r.blame == nil {
		return "-"
	}
	return fixedNs(int64(r.blame.B[c]), 6, 1)
}

// waterfallSpec is the devtools-style timeline table: per-object queue
// / send / first-byte / done instants (seconds of simulated time),
// TTFB and transfer durations (milliseconds), status, and size.
var waterfallSpec = Spec[wfRow]{
	Title: "Request waterfall (times in s, TTFB/xfer in ms; " + wfLegend + ")",
	Width: 108,
	Cols: []Col[wfRow]{
		{Head: "#", Format: "%3d", Value: func(r wfRow) any { return int(r.Span) }},
		{Head: "conn", Format: "%4d", Value: func(r wfRow) any { return int(r.Conn) }},
		{Head: "via", Format: "%-9s", Value: func(r wfRow) any { return wfVia(r.WaterfallRow) }},
		{Head: "f", Format: "%-3s", Value: func(r wfRow) any { return wfFlags(r.WaterfallRow, r.onPath) }},
		{Head: "method", Format: "%-6s", Value: func(r wfRow) any { return r.Method }},
		{Head: "path", Format: "%-18s", Value: func(r wfRow) any { return r.Path }},
		{Head: "queued", Format: "%8s", Value: func(r wfRow) any { return wfSec(r.Queued) }},
		{Head: "sent", Format: "%8s", Value: func(r wfRow) any { return wfSec(r.Written) }},
		{Head: "ttfb", Format: "%8s", Value: func(r wfRow) any { return wfDur(r.TTFB()) }},
		{Head: "xfer", Format: "%8s", Value: func(r wfRow) any { return wfDur(r.Transfer()) }},
		{Head: "done", Format: "%8s", Value: func(r wfRow) any { return wfSec(r.Done) }},
		{Head: "status", Format: "%6s", Value: func(r wfRow) any { return wfStatus(r.WaterfallRow) }},
		{Head: "bytes", Format: "%7d", Value: func(r wfRow) any { return r.Bytes }},
	},
}

// blamePhaseCols appends the per-request attribution phases (ms): the
// same exclusive categories the blame experiment reports, summing
// exactly to queued → done for every analyzed row.
func blamePhaseCols(cols []Col[wfRow]) []Col[wfRow] {
	heads := [causality.NumCategories]string{
		"conn", "rto", "nagle", "flow", "sstart", "server", "hol", "wire",
	}
	cols = append(cols, Col[wfRow]{Format: "|", Value: nil})
	for c := causality.Category(0); c < causality.NumCategories; c++ {
		cat := c
		cols = append(cols, Col[wfRow]{
			Head: heads[c], Format: "%8s",
			Value: func(r wfRow) any { return wfBlameMs(r, cat) },
		})
	}
	return cols
}

// WriteWaterfall renders a timeline bus's request waterfall through
// the column-spec engine. With a non-nil analysis, each row also gets
// its blame breakdown as phase columns (ms, summing exactly to
// queued → done) and critical-path members are flagged *.
func WriteWaterfall(w io.Writer, b *obs.Bus, a *causality.Analysis) {
	base := b.Waterfall()
	rows := make([]wfRow, len(base))
	for i, r := range base {
		rows[i] = wfRow{WaterfallRow: r}
	}
	spec := waterfallSpec
	if a != nil {
		byID := make(map[obs.SpanID]*causality.RequestBlame, len(a.Requests))
		for i := range a.Requests {
			byID[a.Requests[i].Span] = &a.Requests[i]
		}
		for i := range rows {
			if rb, ok := byID[rows[i].Span]; ok {
				rows[i].blame = rb
				rows[i].onPath = rb.OnPath
			}
		}
		spec.Cols = blamePhaseCols(spec.Cols)
		spec.Width = 188
	}
	spec.Render(w, rows)
}
