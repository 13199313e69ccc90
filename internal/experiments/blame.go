package experiments

import (
	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/report"
)

// blameTable is one section of the blame experiment: each row's runs
// carry the causal delay attribution, and the columns — shared by every
// section — are whole-fetch seconds, the critical-path length, and the
// per-category attribution summed over the page's requests (mean across
// the sweep population, milliseconds).
func blameTable(title, labelHead string, pre []string, rows ...core.GridRow) table {
	t := table{
		spec: report.Spec[row]{
			Title: title, Width: 112, PreHeader: pre,
			Cols: []col{
				{Head: labelHead, Format: "%-31s", Value: label(0)},
				seconds("%7.2f"),
				num("CritMs", "%8.1f", func(res *core.RunResult) float64 { return float64(res.Blame.CriticalPath) / 1e6 }),
				separator,
			},
		},
		grid: core.Grid{Stride: 29, Blame: true, Rows: rows},
	}
	for c, head := range [causality.NumCategories]string{"conn", "rto", "nagle", "flow", "sstart", "server", "hol", "wire"} {
		cat := causality.Category(c)
		t.spec.Cols = append(t.spec.Cols,
			num(head, "%8.1f", func(res *core.RunResult) float64 { return res.Blame.Total.Ms(cat) }))
	}
	return t
}

// apachePPPFirst is the cell most of the blame sections vary: the tuned
// server on the modem link, first-time retrieval.
func apachePPPFirst(mode httpclient.Mode, seed uint64) core.Scenario {
	return cell(httpserver.ProfileApache, mode, netem.PPP, httpclient.FirstTime, seed)
}

// pumped is that cell under one of the mux DATA pump's two schedulers.
func pumped(mode httpclient.Mode, fifo bool, seed uint64) core.Scenario {
	sc := apachePPPFirst(mode, seed)
	sc.MuxFIFO = fifo
	return sc
}

// blame is the paper's §4 narrative as machine-checked numbers instead
// of hand-read packet traces.
var blame = experiment{
	name: "blame", title: "Causal delay attribution: per-request blame and critical path (paper §4)",
	tables: []table{
		// §4's Nagle stall: server Nagle re-enabled, as in the nagle
		// experiment. The serial client pays a held final segment (and the
		// client's own Nagle) per object — a nonzero nagle bucket;
		// pipelining coalesces responses so almost no partial segment is
		// left waiting.
		blameTable("Where did the time go? (Jigsaw; WAN first-time; server Nagle re-enabled)", "variant",
			[]string{
				"Per-request elapsed time partitioned into exclusive causes (ms, summed over requests):",
				"conn=TCP setup  rto=retransmit recovery  nagle=Nagle holds  flow=mux window stalls",
				"sstart=cwnd waits  server=think time  hol=head-of-line queueing  wire=transmission",
				"CritMs = page-load critical path (root document → last object through binding constraints)",
			},
			oneCell(jigsawWANFirst(httpclient.ModeHTTP11Serial, false, 21000), "Serial client, server Nagle"),
			oneCell(jigsawWANFirst(httpclient.ModeHTTP11Pipelined, false, 21001), "Pipelined client, server Nagle")),
		// Connection setup on the modem link, tuned server: HTTP/1.0
		// dials per object, HTTP/1.1 once.
		blameTable("Connection-setup attribution (Apache; PPP first-time; tuned server)", "mode", nil,
			oneCell(apachePPPFirst(httpclient.ModeHTTP10, 22000), httpclient.ModeHTTP10.String()),
			oneCell(apachePPPFirst(httpclient.ModeHTTP11Serial, 22001), httpclient.ModeHTTP11Serial.String()),
			oneCell(apachePPPFirst(httpclient.ModeHTTP11Pipelined, 22002), httpclient.ModeHTTP11Pipelined.String())),
		// Stream-priority ablation: plain mux is insensitive (every
		// stream shares one priority band), but with server push the
		// pushed streams ride a lower band that FIFO ignores.
		blameTable("Stream-priority ablation (Apache; PPP first-time; framed modes)", "scheduler",
			[]string{
				"FIFO drains streams in creation order; the default pump serves (priority, id).",
				"The delta lives in the critical path: pushed streams no longer yield to page data.",
			},
			oneCell(pumped(httpclient.ModeMux, false, 23000), "mux, (priority, id) pump"),
			oneCell(pumped(httpclient.ModeMux, true, 23001), "mux, FIFO pump"),
			oneCell(pumped(httpclient.ModeMuxPush, false, 23002), "mux+push, (priority, id) pump"),
			oneCell(pumped(httpclient.ModeMuxPush, true, 23003), "mux+push, FIFO pump")),
		// The two sides of the why-diff ("why is mode A faster than mode
		// B"): generate runs each once at its fixed seed, not as a sweep —
		// no jitter, so the explanation is exact, not averaged.
		{grid: core.Grid{Rows: []core.GridRow{
			oneCell(apachePPPFirst(httpclient.ModeHTTP11Pipelined, 24000), "pipelined/PPP"),
			oneCell(apachePPPFirst(httpclient.ModeHTTP10, 24001), "http10/PPP"),
		}}},
	},
	generate: func(s *exp.Session, e *experiment) (any, error) {
		tables, _, err := e.measure(s, e.tables[:3])
		if err != nil {
			return nil, err
		}
		var sides [2]*causality.Analysis
		why := e.tables[3].grid.Rows
		for i, r := range why {
			res, err := core.Run(r.Cells[0], s.Site, core.WithBlame(), core.WithFlight(s.Flight))
			if err != nil {
				return nil, err
			}
			sides[i] = res.Blame
		}
		diff := report.Spec[causality.DiffRow]{
			Title: "Why is " + why[0].Labels[0].(string) + " faster than " + why[1].Labels[0].(string) +
				"? (fixed seeds, per-category totals, largest delta first)",
			Width: 60,
			Cols: []report.Col[causality.DiffRow]{
				{Head: "category", Format: "%-10s", Value: func(r causality.DiffRow) any { return r.Cat.String() }},
				{Head: "A ms", Format: "%10.1f", Value: func(r causality.DiffRow) any { return float64(r.A) / 1e6 }},
				{Head: "B ms", Format: "%10.1f", Value: func(r causality.DiffRow) any { return float64(r.B) / 1e6 }},
				{Head: "B-A ms", Format: "%10.1f", Value: func(r causality.DiffRow) any { return float64(r.Delta) / 1e6 }},
			},
		}
		return append(tables, report.Tabulate(diff, causality.Diff(sides[0], sides[1]))), nil
	},
}
