package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/report"
)

// The paper's quantities, as most tables print them.
func packets(format string) col { return num("Pa", format, core.Packets) }
func payload(format string) col { return num("Bytes", format, core.PayloadBytes) }
func seconds(format string) col { return num("Sec", format, core.Seconds) }

// overhead is the TCP/IP header share of the averaged cell.
func overhead(format string) col {
	return col{Head: "%ov", Format: format, Value: func(m row) any { return core.Average(m.Results[0]).OverheadPct }}
}

// one wraps a single-table experiment's declaration.
func one(name, title string, t table) experiment {
	return experiment{name: name, title: title, tables: []table{t}}
}

// modem reproduces the §8.2.1 modem-compression comparison: a single GET
// of the Microscape HTML page over the 28.8k link, with and without
// deflate content coding, and with and without V.42bis-style modem
// compression, against each server.
var modem = experiment{
	name: "modem", title: "§8.2.1 modem-compression experiment",
	tables: []table{modemTable(httpserver.ProfileJigsaw), modemTable(httpserver.ProfileApache)},
}

func modemTable(server httpserver.Profile) table {
	variant := func(i uint64, label string, deflate, modem bool) core.GridRow {
		mode := httpclient.ModeHTTP11Serial
		if deflate {
			mode = httpclient.ModeHTTP11PipelinedDeflate
		}
		cfg := mode.Config()
		cfg.PageOnly = true
		sc := cell(server, mode, netem.PPP, httpclient.FirstTime, 8000+i)
		sc.ModemCompression, sc.ClientOverride = modem, &cfg
		return oneCell(sc, label)
	}
	return table{
		spec: report.Spec[row]{
			Title: fmt.Sprintf("Modem compression experiment (single GET of the HTML page over 28.8k PPP) - %s", server),
			Width: 86,
			Cols: []col{
				{Name: "variant", Format: "%-52s", Value: label(0)},
				packets("%8.1f"), payload("%9.0f"), seconds("%8.2f"),
			},
			Footer: func() []string {
				p := core.PaperModem
				return []string{
					fmt.Sprintf("%-52s %8.1f %9s %8.2f", "  (paper: uncompressed HTML)", p.UncompressedPa, "", p.UncompressedSec),
					fmt.Sprintf("%-52s %8.1f %9s %8.2f", "  (paper: zlib-compressed HTML)", p.CompressedPa, "", p.CompressedSec),
				}
			},
		},
		grid: core.Grid{Stride: 7919, Rows: []core.GridRow{
			variant(0, "Uncompressed HTML, modem compression off", false, false),
			variant(1, "Uncompressed HTML, V.42bis modem compression", false, true),
			variant(2, "Deflate-compressed HTML, modem compression off", true, false),
			variant(3, "Deflate-compressed HTML, V.42bis modem compression", true, true),
		}},
	}
}

// jigsawWANFirst is the Nagle ablation's cell: the WAN first-time
// retrieval from a Jigsaw whose Nagle algorithm is on or off.
func jigsawWANFirst(mode httpclient.Mode, noDelay bool, seed uint64) core.Scenario {
	sc := cell(httpserver.ProfileJigsaw, mode, netem.WAN, httpclient.FirstTime, seed)
	sc.ServerOverride = &httpserver.Config{Profile: httpserver.ProfileJigsaw, NoDelay: noDelay}
	return sc
}

// nagle demonstrates the paper's Nagle findings on the WAN first-time
// retrieval workload. The damaging interaction (also documented by
// Heidemann, whom the paper confirms) is between the Nagle algorithm and
// the delayed-ACK policy: a response whose final segment is partial gets
// that segment held at the server until the client's delayed ACK of the
// earlier segments arrives. "We recommend therefore that HTTP/1.1
// implementations that buffer output disable Nagle's algorithm."
var nagle = one("nagle", "Nagle interaction ablation", table{
	spec: report.Spec[row]{
		Title: "Nagle interaction (WAN first-time retrieval; delayed final segments)",
		Width: 72,
		Cols:  []col{{Name: "variant", Format: "%-44s", Value: label(0)}, packets("%8.1f"), seconds("%8.2f")},
	},
	grid: core.Grid{Stride: 7919, Rows: []core.GridRow{
		oneCell(jigsawWANFirst(httpclient.ModeHTTP11Pipelined, true, 9000), "Pipelined client, server TCP_NODELAY (tuned)"),
		oneCell(jigsawWANFirst(httpclient.ModeHTTP11Pipelined, false, 9001), "Pipelined client, server Nagle"),
		oneCell(jigsawWANFirst(httpclient.ModeHTTP11Serial, true, 9002), "Serial client, server TCP_NODELAY"),
		oneCell(jigsawWANFirst(httpclient.ModeHTTP11Serial, false, 9003), "Serial client, server Nagle"),
	}},
})

// reset demonstrates the early-close scenario: a server that limits each
// connection to five responses, closing either naively (both TCP halves
// at once — the connection is reset and pipelined responses are lost) or
// gracefully (independent half-close — the client finishes over several
// connections without loss).
var reset = one("reset", "Server early-close scenario", table{
	spec: report.Spec[row]{
		Title: "Server early-close scenario (5 requests per connection, pipelined client, WAN)",
		Width: 100,
		Cols: []col{
			{Name: "variant", Format: "%-42s", Value: label(0)},
			packets("%8.1f"), seconds("%8.2f"),
			num("Resets", "%8.1f", client(func(c *httpclient.Result) int { return c.Errors })),
			num("Retried", "%8.1f", client(func(c *httpclient.Result) int { return c.Retried })),
			num("Responses", "%10.1f", client(func(c *httpclient.Result) int { return c.Responses200 + c.Responses304 })),
		},
	},
	grid: core.Grid{Stride: 31, Rows: []core.GridRow{
		oneCell(closingAfterFive(false, 9500), "Graceful half-close after 5 requests"),
		oneCell(closingAfterFive(true, 9501), "Naive full close after 5 requests"),
	}},
})

// First-time retrieval spreads the pipelined request batches out in time
// (links are discovered as the page arrives), so with the naive close
// some batches reach the server after it has closed both halves —
// drawing the RST the paper describes.
func closingAfterFive(naive bool, seed uint64) core.Scenario {
	sc := cell(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.WAN, httpclient.FirstTime, seed)
	sc.ServerOverride = &httpserver.Config{
		Profile:            httpserver.ProfileApache,
		MaxRequestsPerConn: 5,
		NaiveClose:         naive,
		NoDelay:            true,
	}
	return sc
}

// flush sweeps the pipelining output-buffer size and flush-timer settings
// the paper experimented with, on the WAN first-time workload (where
// batching granularity is visible in both packets and RTT stalls).
var flush = one("flush", "Buffer/flush-timer ablation", func() table {
	t := table{
		spec: report.Spec[row]{
			Title: "Pipelining flush-policy ablation (WAN first-time retrieval)",
			Width: 64,
			Cols: []col{
				{Head: "buffer", Format: "%-12d", Value: label(0)},
				{Head: "timer", Format: "%-14s", Value: label(1)},
				packets("%8.1f"), seconds("%8.2f"),
			},
		},
		grid: core.Grid{Stride: 7919},
	}
	for _, buf := range []int{256, 512, 1024, 2048, 4096} {
		for _, timeout := range []time.Duration{time.Millisecond, 50 * time.Millisecond, time.Second} {
			cfg := httpclient.ModeHTTP11Pipelined.Config()
			cfg.BufferSize = buf
			cfg.FlushTimeout = timeout
			cfg.ExplicitFirstFlush = true
			sc := cell(httpserver.ProfileApache, cfg.Mode, netem.WAN, httpclient.FirstTime,
				uint64(9700+buf+int(timeout/time.Millisecond)))
			sc.ClientOverride = &cfg
			t.grid.Rows = append(t.grid.Rows, oneCell(sc, buf, timeout))
		}
	}
	return t
}())

// rangeProbe explores the paper's range-request prediction ("poor man's
// multiplexing"): revisiting a page after a site revision, the client can
// validate every object and simultaneously ask for just the head of any
// changed entity, so that one large changed image cannot monopolize the
// pipelined connection ahead of the other objects' metadata.
var rangeProbe = one("range", "Range-probe revalidation after a site revision", table{
	spec: report.Spec[row]{
		Title: "Range-request revalidation after a site revision (PPP, pipelined, ~30% of objects changed)",
		Width: 110,
		Cols: []col{
			{Name: "strategy", Format: "%-46s", Value: label(0)},
			packets("%8.1f"), payload("%9.0f"), seconds("%9.2f"),
			// When every object had returned its first bytes (or a 304):
			// the page-layout-critical time range probes improve.
			num("Metadata Sec", "%13.2f", client(func(c *httpclient.Result) float64 { return c.MetadataSeconds })),
			num("206s", "%8.1f", client(func(c *httpclient.Result) int { return c.Responses206 })),
		},
	},
	grid: core.Grid{Stride: 13, Rows: []core.GridRow{
		oneCell(revisit(0), "Conditional GET (full changed bodies inline)"),
		oneCell(revisit(512), "Conditional GET + Range probe (512 bytes)"),
	}},
})

// Both strategies run against identical revisions: the seed does not
// vary by variant, so the same objects change in each.
func revisit(probeBytes int) core.Scenario {
	cfg := httpclient.ModeHTTP11Pipelined.Config()
	cfg.RevalRangeProbe = probeBytes
	sc := cell(httpserver.ProfileApache, cfg.Mode, netem.PPP, httpclient.Revalidate, 9900)
	sc.ReviseFraction, sc.ClientOverride = 0.3, &cfg
	return sc
}

// cwnd varies TCP's slow-start initial window between one and two
// segments — "Some TCP stacks implement slow start using one TCP segment
// whereas others implement it using two packets" — with and without
// deflate, on the WAN first-time retrieval. The paper's point about
// compression: with more HTML in the first segments, follow-on request
// batches form sooner, so compression matters more when the initial
// window is small.
var cwnd = one("cwnd", "Slow-start initial window ablation", table{
	spec: report.Spec[row]{
		Title: "Slow-start initial window ablation (WAN first-time retrieval, pipelined)",
		Width: 64,
		Cols:  []col{{Name: "variant", Format: "%-30s", Value: label(0)}, packets("%8.1f"), seconds("%8.2f")},
	},
	grid: core.Grid{Stride: 7919, Rows: []core.GridRow{
		oneCell(initialWindow(1, httpclient.ModeHTTP11Pipelined), "IW=1, identity HTML"),
		oneCell(initialWindow(1, httpclient.ModeHTTP11PipelinedDeflate), "IW=1, deflate HTML"),
		oneCell(initialWindow(2, httpclient.ModeHTTP11Pipelined), "IW=2, identity HTML"),
		oneCell(initialWindow(2, httpclient.ModeHTTP11PipelinedDeflate), "IW=2, deflate HTML"),
	}},
})

func initialWindow(segments int, mode httpclient.Mode) core.Scenario {
	cfg := mode.Config()
	cfg.InitialCwndSegments = segments
	sc := cell(httpserver.ProfileApache, mode, netem.WAN, httpclient.FirstTime, 9800)
	sc.ClientOverride = &cfg
	sc.ServerOverride = &httpserver.Config{
		Profile:             httpserver.ProfileApache,
		NoDelay:             true,
		InitialCwndSegments: segments,
	}
	return sc
}

// proxy runs the shared-caching-proxy experiment: a dialup client
// fetching the site through a proxy at the ISP (PPP last mile) that
// reaches the origin over the WAN, for all four protocol modes under
// three cache states — cold (first fetch, all misses), warm (a fresh
// cache serves everything locally), and stale (a cache filled on an
// earlier day revalidates each object upstream with a conditional GET).
// The left columns are the paper's quantities on the last mile, as the
// dialup user sees them; the right ones the cache's effectiveness.
var proxy = one("proxy", "Shared caching proxy tier (PPP last mile, WAN origin)", func() table {
	t := table{
		spec: report.Spec[row]{
			Title: "Shared proxy cache (PPP last mile, proxy to Apache origin over WAN; first-time workload)",
			Width: 118,
			PreHeader: []string{
				"cold = empty cache | warm = site cached and fresh | stale = cached earlier, expired (revalidate upstream)",
			},
			Cols: []col{
				{Name: "mode", Format: "%-33s", Value: label(0)},
				{Head: "cache", Format: "%-6s", Value: label(1)},
				packets("%7.1f"), payload("%9.0f"), seconds("%7.2f"), overhead("%6.2f"),
				separator,
				num("hit%", "%6.1f", func(res *core.RunResult) float64 {
					if res.Proxy.Requests == 0 {
						return 0
					}
					return 100 * float64(res.Proxy.Hits) / float64(res.Proxy.Requests)
				}),
				num("KBsaved", "%8.1f", kb(func(res *core.RunResult) float64 { return float64(res.Proxy.BytesFromCache) })),
				num("upReq", "%6.1f", func(res *core.RunResult) float64 { return float64(res.Proxy.UpstreamRequests) }),
				num("originPa", "%9.1f", func(res *core.RunResult) float64 { return float64(res.Origin.Packets) }),
			},
		},
		grid: core.Grid{Stride: 7919},
	}
	for vi, v := range []struct {
		name        string
		warm, stale bool
	}{
		{"cold", false, false},
		{"warm", true, false},
		{"stale", false, true},
	} {
		for mi, mode := range protocolModes {
			sc := cell(httpserver.ProfileApache, mode, netem.PPP, httpclient.FirstTime, 13000+uint64(vi)*100+uint64(mi))
			sc.Proxy = &core.ProxyScenario{Env: netem.WAN, Warm: v.warm, Stale: v.stale}
			t.grid.Rows = append(t.grid.Rows, oneCell(sc, mode.String(), v.name))
		}
	}
	return t
}())
