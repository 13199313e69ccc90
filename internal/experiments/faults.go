package experiments

import (
	"slices"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/report"
)

// faultGrid is the layout the fault, variance and mux fault-recovery
// tables share: environment × fault profile × client mode, fetching the
// site first-time from the Apache profile, seeded base + 1000·env +
// 100·profile + mode.
func faultGrid(stride, base uint64, profiles []faults.Profile, modes []httpclient.Mode) core.Grid {
	g := core.Grid{Stride: stride}
	for ei, env := range []netem.Environment{netem.PPP, netem.WAN} {
		for fi, prof := range profiles {
			for mi, mode := range modes {
				sc := cell(httpserver.ProfileApache, mode, env, httpclient.FirstTime, base+uint64(ei)*1000+uint64(fi)*100+uint64(mi))
				sc.Fault = prof
				g.Rows = append(g.Rows, oneCell(sc, env.String(), prof.String(), mode.String()))
			}
		}
	}
	return g
}

// recoveryCols is the recovery accounting every faulted client reports,
// averaged over the sweep population.
var recoveryCols = []col{
	num("Err", "%5.1f", client(func(c *httpclient.Result) int { return c.Errors })),
	num("Rtry", "%6.1f", client(func(c *httpclient.Result) int { return c.Retried })),
	num("TO", "%5.1f", client(func(c *httpclient.Result) int { return c.Timeouts })),
	num("Rec", "%5.1f", client(func(c *httpclient.Result) int { return c.RequestsRecovered })),
	num("Fail", "%5.1f", client(func(c *httpclient.Result) int { return c.RequestsFailed })),
	num("Waste", "%7.1f", kb(client(func(c *httpclient.Result) int64 { return c.WastedBytes }))),
	num("Fallb", "%6.1f", client(func(c *httpclient.Result) int { return c.Fallbacks })),
}

// faultsTable is the fault-injection table over the given profiles and
// modes: a scripted fault — an early-closing server, Gilbert–Elliott
// burst loss, a periodic link flap, or a stalled response — disrupts the
// transfer. Every faulted client runs the default recovery policy
// (watchdog timeout, capped backoff, retry budget, protocol fallback);
// the "none" rows are the undisturbed baseline.
func faultsTable(base uint64, profiles []faults.Profile, modes []httpclient.Mode) table {
	return table{
		spec: report.Spec[row]{
			Title: "Fault injection and recovery (Apache, first-time retrieval; default recovery policy)",
			Width: 117,
			PreHeader: []string{
				"TO = client watchdog timeouts | Rec = requests recovered by retry | Fail = permanently failed",
				"Waste = payload KB delivered then re-fetched | Fallb = degradation steps (pipelined -> serial -> HTTP/1.0)",
			},
			Cols: append([]col{
				{Head: "env", Format: "%-5s", Value: label(0)},
				{Head: "fault", Format: "%-12s", Value: label(1)},
				{Name: "mode", Format: "%-33s", Value: label(2)},
				packets("%7.1f"), seconds("%8.2f"),
				separator,
			}, recoveryCols...),
		},
		grid: faultGrid(17, base, profiles, modes),
	}
}

var faultInjection = one("faults", "Fault injection and recovery (PPP and WAN, scripted faults)",
	faultsTable(14000, []faults.Profile{faults.None, faults.EarlyClose, faults.BurstLoss, faults.Flap, faults.Stall}, protocolModes))

// latencyMs is a quantile of the per-request total-latency distribution,
// in milliseconds, from the histograms of all the cell's runs merged; the
// quantile at 1 is the exact maximum.
func latencyMs(head, format string, q float64) col {
	return col{Head: head, Format: format, Value: func(m row) any {
		return float64(core.MergedLatency(m.Results[0]).Total.Quantile(q)) / 1e6
	}}
}

// varianceTable is the seed-variance table over the given modes, clean —
// the link every paper table used — and under seeded Gilbert–Elliott
// burst loss, each cell repeated across the sweep's seeded population.
// Where the paper reported one tcpdump-accounted number per cell, this
// reports the distribution — mean ± 95% CI for elapsed time and packets,
// and exact-rank latency quantiles per request — so a conclusion like
// "pipelining wins" can be checked for robustness to loss variance
// rather than taken from a single draw.
func varianceTable(base uint64, modes []httpclient.Mode) table {
	ci := func(head string, prec int, f func(*core.RunResult) float64) col {
		return col{Head: head, Format: "%15s", Value: func(m row) any {
			return report.CI{Summary: core.Summarize(m.Results[0], f), Prec: prec}
		}}
	}
	t := table{
		spec: report.Spec[row]{
			Title: "Seed-variance experiment (Apache, first-time retrieval; Student-t 95% CIs over N seeded runs)",
			Width: 130,
			PreHeader: []string{
				"Sec/Pa = whole-fetch elapsed seconds and packets, mean ± 95% CI | p50/p90/p99/max = per-request total latency [ms]",
			},
			Cols: []col{
				{Head: "env", Format: "%-5s", Value: label(0)},
				{Head: "fault", Format: "%-12s", Value: label(1)},
				{Name: "mode", Format: "%-33s", Value: label(2)},
				{Head: "N", Format: "%3d", Value: func(m row) any { return len(m.Results[0]) }},
				ci("Sec", 2, core.Seconds),
				ci("Pa", 1, core.Packets),
				separator,
				latencyMs("p50", "%8.1f", 0.50),
				latencyMs("p90", "%8.1f", 0.90),
				latencyMs("p99", "%8.1f", 0.99),
				latencyMs("max", "%9.1f", 1),
			},
		},
		grid: faultGrid(23, base, []faults.Profile{faults.None, faults.BurstLoss}, modes),
	}
	t.grid.Stats = true
	return t
}

var variance = one("variance", "Seed-variance experiment: per-cell 95% CIs and latency quantiles (clean vs burst loss)",
	varianceTable(16000, protocolModes))

// muxFaults runs the mux fault-recovery experiment: the framed client
// modes fetching the site first-time over PPP and WAN while a scripted
// framed-protocol fault — a mid-stream RST_STREAM, a truncated DATA
// frame, a garbage frame, an aborted push, or a SETTINGS stall —
// disrupts the session. Every faulted client runs the default recovery
// policy, so the table answers the robustness question the mux grid
// defers: when a multiplexed session misbehaves, what does detection
// (strict validation, per-stream watchdogs, deadlock detectors) and
// recovery (stream resets, session redial with replay, the fallback
// ladder) cost in packets, time, and wasted bytes.
//
// Pipelined HTTP/1.1 is the baseline: the framed faults are inert on it
// (their injection hook lives in the server's mux path), so its rows
// show what the disruption costs relative to an untouched transfer.
// Burst likewise runs over HTTP/1.x and rides along as the
// aggregated-transfer control.
var muxFaults = one("mux-faults", "Framed-protocol fault injection: mux error handling and stream recovery", table{
	spec: report.Spec[row]{
		Title: "Framed-protocol fault injection and recovery (Apache, first-time retrieval; default recovery policy)",
		Width: 132,
		PreHeader: []string{
			"TO = watchdog timeouts | Rec/Fail = requests recovered by retry / permanently failed | RecS = seconds spent in recovery",
			"Rst = streams torn down by RST_STREAM | GoAwy = GOAWAY announcements | Dead = confirmed flow-control deadlocks",
		},
		Cols: slices.Concat([]col{
			{Head: "env", Format: "%-5s", Value: label(0)},
			{Head: "fault", Format: "%-14s", Value: label(1)},
			{Name: "mode", Format: "%-18s", Value: label(2)},
			packets("%7.1f"), seconds("%8.2f"),
			separator,
		}, recoveryCols[:6], []col{
			num("RecS", "%6.2f", client(func(c *httpclient.Result) float64 { return c.RecoverySeconds })),
			recoveryCols[6],
			separator,
			// Deadlocks are watchdog expiries proven to be flow-control
			// deadlocks: usually zero — recovery clears wedged windows
			// before they become terminal.
			num("Rst", "%5.1f", client(func(c *httpclient.Result) int { return c.StreamsReset })),
			num("GoAwy", "%6.1f", client(func(c *httpclient.Result) int { return c.Goaways })),
			num("Dead", "%5.1f", client(func(c *httpclient.Result) int { return c.DeadlocksDetected })),
		}),
	},
	grid: faultGrid(31, 21000,
		[]faults.Profile{faults.None, faults.MuxRst, faults.MuxTruncate, faults.MuxGarbage, faults.MuxPushAbort, faults.MuxStall},
		[]httpclient.Mode{httpclient.ModeHTTP11Pipelined, httpclient.ModeMux, httpclient.ModeMuxPush, httpclient.ModeBurst}),
})

// newModes are the three modes the mux layer adds to the paper's four.
var newModes = []httpclient.Mode{httpclient.ModeMux, httpclient.ModeMuxPush, httpclient.ModeBurst}

// muxCols are one workload's whole-fetch quantities in the mux grid.
var muxCols = []col{
	packets("%7.1f"),
	num("KB", "%7.1f", kb(core.PayloadBytes)),
	seconds("%8.2f"),
}

// mux runs the multiplexed-protocol experiment against the Apache
// profile: every mode (the paper's four plus mux, mux-push, and burst)
// across the three environments and both workloads, then the new modes
// under link faults and across seeded populations (the legacy modes have
// the faults and variance experiments for that). It asks the paper's
// follow-on question — how much of pipelining's win does real
// multiplexing extend, what does server push buy (and waste), and what
// does aggregating the page into one response give up in cacheability.
//
// The fault section sweeps link-level disruptions, which stress the
// transports identically; the framed-protocol faults (mid-stream resets,
// garbage frames, …) have their own experiment, mux-faults.
var mux = experiment{
	name: "mux", title: "Multiplexed protocol modes: mux, server push, burst vs the paper's four",
	tables: []table{
		func() table {
			t := table{
				spec: report.Spec[row]{
					Title:     "Multiplexed protocol modes (Apache; paper modes vs mux / mux+push / burst)",
					Width:     92,
					PreHeader: []string{"First Time Retrieval                 Cache Validation"},
					Cols: slices.Concat([]col{
						{Head: "env", Format: "%-4s", Value: label(0)},
						{Name: "mode", Format: "%-33s", Value: label(1)},
					}, muxCols, []col{separator}),
				},
				grid: core.Grid{Stride: 29},
			}
			for _, c := range muxCols {
				c.Name = "reval " + c.Head
				t.spec.Cols = append(t.spec.Cols, reval(c))
			}
			for ei, env := range []netem.Environment{netem.PPP, netem.WAN, netem.LAN} {
				for mi, mode := range slices.Concat(protocolModes, newModes) {
					r := core.GridRow{Labels: []any{env.String(), mode.String()}}
					for wi, wl := range bothWorkloads {
						r.Cells = append(r.Cells, cell(httpserver.ProfileApache, mode, env, wl,
							18000+uint64(ei)*1000+uint64(mi)*10+uint64(wi)))
					}
					t.grid.Rows = append(t.grid.Rows, r)
				}
			}
			return t
		}(),
		faultsTable(19000, []faults.Profile{faults.None, faults.BurstLoss, faults.Flap}, newModes),
		varianceTable(20000, newModes),
	},
	generate: func(s *exp.Session, e *experiment) (any, error) {
		tables, measured, err := e.measure(s, e.tables)
		if err != nil {
			return nil, err
		}
		// The accounting view reads the grid's own runs, one row per
		// workload of each framed mode: an HTTP/1.x mode has nothing
		// multiplexed to account.
		var framed []row
		for _, m := range measured[0] {
			if !m.Results[0][0].Scenario.Client.Framed() {
				continue
			}
			framed = append(framed,
				row{Labels: append(m.Labels[:2:2], "First Time"), Results: m.Results[:1]},
				row{Labels: append(m.Labels[:2:2], "Cache Validation"), Results: m.Results[1:]})
		}
		return slices.Insert(tables, 1, report.Tabulate(muxAccounting, framed)), nil
	},
}

// muxAccounting details what the framing layer did: streams, push
// economics (promises, claims, wasted bytes), header-compression savings,
// and flow-control stalls on either endpoint.
var muxAccounting = report.Spec[row]{
	Title: "Multiplexing accounting (framed modes)",
	Width: 92,
	PreHeader: []string{
		"Strm = client-opened streams | Prom/Used = push promises made / claimed",
		"PushWaste = pushed KB never wanted | HdrSaved = header-compression KB | Stall = window exhaustions",
	},
	Cols: []col{
		{Head: "env", Format: "%-4s", Value: label(0)},
		{Name: "mode", Format: "%-20s", Value: label(1)},
		{Head: "workload", Format: "%-17s", Value: label(2)},
		num("Strm", "%5.0f", client(func(c *httpclient.Result) int { return c.StreamsOpened })),
		num("Prom", "%5.0f", client(func(c *httpclient.Result) int { return c.PushPromised })),
		num("Used", "%5.0f", client(func(c *httpclient.Result) int { return c.PushUsed })),
		num("PushWaste", "%10.1f", kb(client(func(c *httpclient.Result) int64 { return c.PushWastedBytes }))),
		num("HdrSaved", "%9.2f", kb(client(func(c *httpclient.Result) int64 { return c.HeaderBytesSaved }))),
		num("Stall", "%6.1f", func(res *core.RunResult) float64 {
			return float64(res.Client.FlowControlStalls + res.Server.FlowControlStalls)
		}),
	},
}
