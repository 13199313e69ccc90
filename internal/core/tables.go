package core

import (
	"fmt"
	"time"

	"repro/internal/flatez"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// Cell is one measured table cell (averaged).
type Cell struct {
	Packets     float64
	Bytes       float64
	Seconds     float64
	OverheadPct float64
}

func cellFromAvg(a Avg) Cell {
	return Cell{Packets: a.Packets, Bytes: a.Bytes, Seconds: a.Seconds, OverheadPct: a.OverheadPct}
}

// Row is one protocol row: first-time retrieval and cache validation.
type Row struct {
	Label        string
	First, Reval Cell
	// Paper holds the published values when available.
	Paper *PaperRow
}

// Table is a regenerated paper table.
type Table struct {
	Number int // paper table number, 0 for extra experiments
	Title  string
	Rows   []Row
}

// protocolModes are the four measured client configurations, in table
// order.
var protocolModes = []httpclient.Mode{
	httpclient.ModeHTTP10,
	httpclient.ModeHTTP11Serial,
	httpclient.ModeHTTP11Pipelined,
	httpclient.ModeHTTP11PipelinedDeflate,
}

// envOf maps a paper table number to its environment and server.
func tableConfig(number int) (httpserver.Profile, netem.Environment, bool) {
	switch number {
	case 4:
		return httpserver.ProfileJigsaw, netem.LAN, true
	case 5:
		return httpserver.ProfileApache, netem.LAN, true
	case 6:
		return httpserver.ProfileJigsaw, netem.WAN, true
	case 7:
		return httpserver.ProfileApache, netem.WAN, true
	case 8:
		return httpserver.ProfileJigsaw, netem.PPP, true
	case 9:
		return httpserver.ProfileApache, netem.PPP, true
	}
	return 0, 0, false
}

// MainTable regenerates one of Tables 4-9: a server × environment page,
// all protocol modes × both workloads. Tables 8 and 9 omit HTTP/1.0, as
// the paper did.
func (sw Sweep) MainTable(number int, site *webgen.Site) (Table, error) {
	profile, env, ok := tableConfig(number)
	if !ok {
		return Table{}, fmt.Errorf("core: no main table %d", number)
	}
	t := Table{
		Number: number,
		Title: fmt.Sprintf("Table %d - %s - %s", number, profile,
			map[netem.Environment]string{
				netem.LAN: "High Bandwidth, Low Latency",
				netem.WAN: "High Bandwidth, High Latency",
				netem.PPP: "Low Bandwidth, High Latency",
			}[env]),
	}
	modes := protocolModes
	if env == netem.PPP {
		modes = modes[1:] // the paper has no HTTP/1.0 rows over PPP
	}
	paper := PaperTables[number]
	for i, mode := range modes {
		row := Row{Label: mode.String()}
		if i < len(paper) {
			p := paper[i]
			row.Paper = &p
		}
		for _, wl := range []httpclient.Workload{httpclient.FirstTime, httpclient.Revalidate} {
			sc := Scenario{Server: profile, Client: mode, Env: env, Workload: wl, Seed: uint64(number)*1000 + uint64(i)}
			avg, err := sw.RunAveraged(sc, site)
			if err != nil {
				return t, fmt.Errorf("%s: %w", sc, err)
			}
			if wl == httpclient.FirstTime {
				row.First = cellFromAvg(avg)
			} else {
				row.Reval = cellFromAvg(avg)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// BrowserTable regenerates Table 10 (Jigsaw) or 11 (Apache): product
// browser profiles over PPP.
func (sw Sweep) BrowserTable(number int, site *webgen.Site) (Table, error) {
	var profile httpserver.Profile
	switch number {
	case 10:
		profile = httpserver.ProfileJigsaw
	case 11:
		profile = httpserver.ProfileApache
	default:
		return Table{}, fmt.Errorf("core: no browser table %d", number)
	}
	t := Table{
		Number: number,
		Title:  fmt.Sprintf("Table %d - %s - Netscape Navigator and MS Internet Explorer, Low Bandwidth, High Latency", number, profile),
	}
	paper := PaperTables[number]
	for i, mode := range []httpclient.Mode{httpclient.ModeNetscape, httpclient.ModeMSIE} {
		row := Row{Label: mode.String()}
		if i < len(paper) {
			p := paper[i]
			row.Paper = &p
		}
		for _, wl := range []httpclient.Workload{httpclient.FirstTime, httpclient.Revalidate} {
			cfg := mode.Config()
			if mode == httpclient.ModeMSIE && profile == httpserver.ProfileJigsaw && wl == httpclient.Revalidate {
				// Table 10 records IE revalidating very poorly against
				// Jigsaw: connection reuse and the page validation did
				// not work, so every validation opened a fresh
				// connection and the page came back in full.
				cfg.KeepAlive = false
				cfg.RevalidateHTMLUnconditionally = true
			}
			sc := Scenario{
				Server: profile, Client: mode, Env: netem.PPP, Workload: wl,
				Seed:           uint64(number)*1000 + uint64(i),
				ClientOverride: &cfg,
			}
			avg, err := sw.RunAveraged(sc, site)
			if err != nil {
				return t, fmt.Errorf("%s: %w", sc, err)
			}
			if wl == httpclient.FirstTime {
				row.First = cellFromAvg(avg)
			} else {
				row.Reval = cellFromAvg(avg)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table3Row is one column of the paper's Table 3 (the initial, untuned
// LAN revalidation investigation).
type Table3Row struct {
	Label        string
	MaxSockets   int
	TotalSockets int
	PktsC2S      float64
	PktsS2C      float64
	PktsTotal    float64
	Elapsed      float64
}

// Table3 reproduces the initial high-bandwidth low-latency cache
// revalidation test: HTTP/1.0, naive persistent HTTP/1.1, and the first
// pipelined implementation with its untuned 1-second flush timer and no
// explicit application flush.
func (sw Sweep) Table3(site *webgen.Site) ([]Table3Row, error) {
	type variant struct {
		label string
		cfg   httpclient.Config
	}
	// The initial HTTP/1.1 robot kept its persistent cache as two files
	// per object on disk; the paper calls this overhead "a performance
	// bottleneck in our HTTP/1.1 tests" (later moved to a memory file
	// system). That slow per-request client work is what made
	// non-pipelined HTTP/1.1 *slower* in elapsed time than HTTP/1.0.
	const initialCacheCPU = 85 * time.Millisecond

	serial := httpclient.ModeHTTP11Serial.Config()
	serial.PerRequestCPU = initialCacheCPU

	pipeline := httpclient.ModeHTTP11Pipelined.Config()
	// The initial implementation: flush on size or a 1-second timer only.
	pipeline.ExplicitFirstFlush = false
	pipeline.FlushTimeout = time.Second
	pipeline.PerRequestCPU = initialCacheCPU

	http10 := httpclient.ModeHTTP10.Config()
	http10.MaxConns = 6 // the initial robot ran up to 6 sockets (Table 3)

	variants := []variant{
		{"HTTP/1.0", http10},
		{"HTTP/1.1 Persistent", serial},
		{"HTTP/1.1 Pipeline", pipeline},
	}
	var rows []Table3Row
	for i, v := range variants {
		cfg := v.cfg
		sc := Scenario{
			Server: httpserver.ProfileJigsaw, Client: cfg.Mode,
			Env: netem.LAN, Workload: httpclient.Revalidate,
			Seed:           3000 + uint64(i),
			ClientOverride: &cfg,
		}
		results, err := sw.series(sc, site, 101)
		if err != nil {
			return nil, err
		}
		var c2s, s2c, total, secs, socks, maxSock float64
		for _, res := range results {
			c2s += float64(res.Stats.ClientToServer)
			s2c += float64(res.Stats.ServerToClient)
			total += float64(res.Stats.Packets)
			secs += res.Elapsed.Seconds()
			socks += float64(res.Client.SocketsUsed)
			if m := float64(res.Client.MaxSimultaneousConns); m > maxSock {
				maxSock = m
			}
		}
		n := float64(len(results))
		rows = append(rows, Table3Row{
			Label:        v.label,
			MaxSockets:   int(maxSock),
			TotalSockets: int(socks / n),
			PktsC2S:      c2s / n,
			PktsS2C:      s2c / n,
			PktsTotal:    total / n,
			Elapsed:      secs / n,
		})
	}
	return rows, nil
}

// ModemRow is one row of the §8.2.1 modem-compression experiment.
type ModemRow struct {
	Label   string
	Packets float64
	Bytes   float64
	Seconds float64
}

// ModemTable reproduces the modem-compression comparison: a single GET of
// the Microscape HTML page over the 28.8k link, with and without deflate
// content coding, and with and without V.42bis-style modem compression.
func (sw Sweep) ModemTable(site *webgen.Site, profile httpserver.Profile) ([]ModemRow, error) {
	type variant struct {
		label   string
		deflate bool
		modem   bool
	}
	variants := []variant{
		{"Uncompressed HTML, modem compression off", false, false},
		{"Uncompressed HTML, V.42bis modem compression", false, true},
		{"Deflate-compressed HTML, modem compression off", true, false},
		{"Deflate-compressed HTML, V.42bis modem compression", true, true},
	}
	var rows []ModemRow
	for i, v := range variants {
		mode := httpclient.ModeHTTP11Serial
		if v.deflate {
			mode = httpclient.ModeHTTP11PipelinedDeflate
		}
		cfg := mode.Config()
		cfg.PageOnly = true
		sc := Scenario{
			Server: profile, Client: mode, Env: netem.PPP,
			Workload:         httpclient.FirstTime,
			Seed:             8000 + uint64(i),
			ModemCompression: v.modem,
			ClientOverride:   &cfg,
		}
		avg, err := sw.RunAveraged(sc, site)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ModemRow{Label: v.label, Packets: avg.Packets, Bytes: avg.Bytes, Seconds: avg.Seconds})
	}
	return rows, nil
}

// TagCaseRow is one row of the tag-case compression experiment.
type TagCaseRow struct {
	Label     string
	HTMLBytes int
	Deflated  int
	Ratio     float64
}

// TagCaseTable reproduces the paper's observation that markup letter case
// affects deflate performance (lower-case tags compressed to ~0.27 of the
// original vs ~0.35 for mixed case).
func TagCaseTable() ([]TagCaseRow, error) {
	var rows []TagCaseRow
	for _, tc := range []webgen.TagCase{webgen.TagsLower, webgen.TagsMixed, webgen.TagsUpper} {
		html := webgen.MicroscapeHTML(webgen.Options{Seed: 2, TagCase: tc})
		comp := flatez.Compress(html)
		rows = append(rows, TagCaseRow{
			Label:     tc.String() + "-case tags",
			HTMLBytes: len(html),
			Deflated:  len(comp),
			Ratio:     flatez.Ratio(html, comp),
		})
	}
	return rows, nil
}

// NagleRow is one row of the Nagle-interaction experiment.
type NagleRow struct {
	Label   string
	Packets float64
	Seconds float64
}

// NagleTable demonstrates the paper's Nagle findings on the WAN
// first-time retrieval workload. The damaging interaction (also
// documented by Heidemann, whom the paper confirms) is between the Nagle
// algorithm and the delayed-ACK policy: a response whose final segment is
// partial gets that segment held at the server until the client's delayed
// ACK of the earlier segments arrives. "We recommend therefore that
// HTTP/1.1 implementations that buffer output disable Nagle's algorithm."
func (sw Sweep) NagleTable(site *webgen.Site) ([]NagleRow, error) {
	type variant struct {
		label      string
		mode       httpclient.Mode
		srvNoDelay bool
	}
	variants := []variant{
		{"Pipelined client, server TCP_NODELAY (tuned)", httpclient.ModeHTTP11Pipelined, true},
		{"Pipelined client, server Nagle", httpclient.ModeHTTP11Pipelined, false},
		{"Serial client, server TCP_NODELAY", httpclient.ModeHTTP11Serial, true},
		{"Serial client, server Nagle", httpclient.ModeHTTP11Serial, false},
	}
	var rows []NagleRow
	for i, v := range variants {
		srv := httpserver.Config{Profile: httpserver.ProfileJigsaw, NoDelay: v.srvNoDelay}
		sc := Scenario{
			Server: httpserver.ProfileJigsaw, Client: v.mode,
			Env: netem.WAN, Workload: httpclient.FirstTime,
			Seed:           9000 + uint64(i),
			ServerOverride: &srv,
		}
		avg, err := sw.RunAveraged(sc, site)
		if err != nil {
			return nil, err
		}
		rows = append(rows, NagleRow{Label: v.label, Packets: avg.Packets, Seconds: avg.Seconds})
	}
	return rows, nil
}

// ResetRow is one row of the connection-management experiment.
type ResetRow struct {
	Label     string
	Packets   float64
	Seconds   float64
	Errors    float64
	Retried   float64
	Responses float64
}

// ResetTable demonstrates the early-close scenario: a server that limits
// each connection to five responses, closing either naively (both TCP
// halves at once — the connection is reset and pipelined responses are
// lost) or gracefully (independent half-close — the client finishes over
// several connections without loss).
func (sw Sweep) ResetTable(site *webgen.Site) ([]ResetRow, error) {
	type variant struct {
		label string
		naive bool
	}
	variants := []variant{
		{"Graceful half-close after 5 requests", false},
		{"Naive full close after 5 requests", true},
	}
	var rows []ResetRow
	for i, v := range variants {
		srv := httpserver.Config{
			Profile:            httpserver.ProfileApache,
			MaxRequestsPerConn: 5,
			NaiveClose:         v.naive,
			NoDelay:            true,
		}
		// First-time retrieval spreads the pipelined request batches out
		// in time (links are discovered as the page arrives), so with the
		// naive close some batches reach the server after it has closed
		// both halves — drawing the RST the paper describes.
		sc := Scenario{
			Server: httpserver.ProfileApache, Client: httpclient.ModeHTTP11Pipelined,
			Env: netem.WAN, Workload: httpclient.FirstTime,
			Seed:           9500 + uint64(i),
			ServerOverride: &srv,
		}
		results, err := sw.series(sc, site, 31)
		if err != nil {
			return nil, err
		}
		var pa, secs, errs, retried, resp float64
		for _, res := range results {
			pa += float64(res.Stats.Packets)
			secs += res.Elapsed.Seconds()
			errs += float64(res.Client.Errors)
			retried += float64(res.Client.Retried)
			resp += float64(res.Client.Responses200 + res.Client.Responses304)
		}
		n := float64(len(results))
		rows = append(rows, ResetRow{
			Label: v.label, Packets: pa / n, Seconds: secs / n,
			Errors: errs / n, Retried: retried / n, Responses: resp / n,
		})
	}
	return rows, nil
}

// FlushRow is one cell of the flush-policy ablation.
type FlushRow struct {
	BufferSize   int
	FlushTimeout time.Duration
	Packets      float64
	Seconds      float64
}

// FlushAblation sweeps the pipelining output-buffer size and flush-timer
// settings the paper experimented with, on the WAN first-time workload
// (where batching granularity is visible in both packets and RTT stalls).
func (sw Sweep) FlushAblation(site *webgen.Site) ([]FlushRow, error) {
	var rows []FlushRow
	for _, buf := range []int{256, 512, 1024, 2048, 4096} {
		for _, timeout := range []time.Duration{time.Millisecond, 50 * time.Millisecond, time.Second} {
			cfg := httpclient.ModeHTTP11Pipelined.Config()
			cfg.BufferSize = buf
			cfg.FlushTimeout = timeout
			cfg.ExplicitFirstFlush = true
			sc := Scenario{
				Server: httpserver.ProfileApache, Client: cfg.Mode,
				Env: netem.WAN, Workload: httpclient.FirstTime,
				Seed:           uint64(9700 + buf + int(timeout/time.Millisecond)),
				ClientOverride: &cfg,
			}
			avg, err := sw.RunAveraged(sc, site)
			if err != nil {
				return nil, err
			}
			rows = append(rows, FlushRow{BufferSize: buf, FlushTimeout: timeout, Packets: avg.Packets, Seconds: avg.Seconds})
		}
	}
	return rows, nil
}

// RangeRow is one strategy of the range-request experiment.
type RangeRow struct {
	Label                   string
	Packets, Bytes, Seconds float64
	// MetadataSeconds is when every object had returned its first bytes
	// (or a 304) — the page-layout-critical time range probes improve.
	MetadataSeconds float64
	Responses206    float64
}

// RangeTable explores the paper's range-request prediction ("poor man's
// multiplexing"): revisiting a page after a site revision, the client can
// validate every object and simultaneously ask for just the head of any
// changed entity, so that one large changed image cannot monopolize the
// pipelined connection ahead of the other objects' metadata.
func (sw Sweep) RangeTable(site *webgen.Site) ([]RangeRow, error) {
	type variant struct {
		label string
		probe int
	}
	variants := []variant{
		{"Conditional GET (full changed bodies inline)", 0},
		{"Conditional GET + Range probe (512 bytes)", 512},
	}
	var rows []RangeRow
	sw.served = new([]*webgen.Site)
	for _, v := range variants {
		cfg := httpclient.ModeHTTP11Pipelined.Config()
		cfg.RevalRangeProbe = v.probe
		// Both strategies run against identical revisions: the seed does
		// not vary by variant, so the same objects change in each, and
		// each revision is synthesized once, by the first variant's runs.
		sc := Scenario{
			Server: httpserver.ProfileApache, Client: cfg.Mode,
			Env: netem.PPP, Workload: httpclient.Revalidate,
			ReviseFraction: 0.3,
			Seed:           9900,
			ClientOverride: &cfg,
		}
		results, err := sw.series(sc, site, 13)
		if err != nil {
			return nil, err
		}
		var pa, bytes, secs, meta, r206 float64
		for _, res := range results {
			pa += float64(res.Stats.Packets)
			bytes += float64(res.Stats.PayloadBytes)
			secs += res.Elapsed.Seconds()
			meta += res.Client.MetadataSeconds
			r206 += float64(res.Client.Responses206)
		}
		n := float64(len(results))
		rows = append(rows, RangeRow{
			Label: v.label, Packets: pa / n, Bytes: bytes / n,
			Seconds: secs / n, MetadataSeconds: meta / n, Responses206: r206 / n,
		})
	}
	return rows, nil
}

// HeaderRedundancyRow is one request-encoding strategy of the paper's
// compact-wire-representation estimate.
type HeaderRedundancyRow struct {
	Label        string
	RequestBytes int
	Ratio        float64 // versus the plain text encoding
}

// HeaderRedundancy quantifies the paper's back-of-the-envelope claim that
// "HTTP requests are usually highly redundant and the actual number of
// bytes that changes between requests can be as small as 10%", so "a more
// compact wire representation for HTTP could increase pipelining's
// benefit ... up to an additional factor of five or ten" on revalidation
// traffic. It serializes the 43 revalidation requests and compares the
// plain text bytes against deflate with each request compressed using the
// previous one as a preset dictionary (a stand-in for a tokenized
// encoding).
func HeaderRedundancy(site *webgen.Site) ([]HeaderRedundancyRow, error) {
	cache := httpclient.NewCache()
	cache.Prime(site)
	reqs := httpclient.RevalidationRequests(cache)
	plain := 0
	for _, r := range reqs {
		plain += len(r)
	}
	delta := 0
	var prev []byte
	for _, r := range reqs {
		delta += len(flatez.CompressDict(r, prev, 9))
		prev = r
	}
	whole := len(flatez.CompressLevel(joinBytes(reqs), 9))
	return []HeaderRedundancyRow{
		{"Plain text requests", plain, 1},
		{"Whole-stream deflate", whole, float64(whole) / float64(plain)},
		{"Per-request deflate w. previous-request dictionary", delta, float64(delta) / float64(plain)},
	}, nil
}

func joinBytes(bs [][]byte) []byte {
	var out []byte
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

// CwndRow is one cell of the initial-window ablation.
type CwndRow struct {
	Label   string
	Packets float64
	Seconds float64
}

// CwndTable varies TCP's slow-start initial window between one and two
// segments — "Some TCP stacks implement slow start using one TCP segment
// whereas others implement it using two packets" — with and without
// deflate, on the WAN first-time retrieval. The paper's point about
// compression: with more HTML in the first segments, follow-on request
// batches form sooner, so compression matters more when the initial
// window is small.
func (sw Sweep) CwndTable(site *webgen.Site) ([]CwndRow, error) {
	type variant struct {
		label string
		iw    int
		mode  httpclient.Mode
	}
	variants := []variant{
		{"IW=1, identity HTML", 1, httpclient.ModeHTTP11Pipelined},
		{"IW=1, deflate HTML", 1, httpclient.ModeHTTP11PipelinedDeflate},
		{"IW=2, identity HTML", 2, httpclient.ModeHTTP11Pipelined},
		{"IW=2, deflate HTML", 2, httpclient.ModeHTTP11PipelinedDeflate},
	}
	var rows []CwndRow
	for _, v := range variants {
		cfg := v.mode.Config()
		cfg.TCP.InitialCwndSegments = v.iw
		srv := httpserver.Config{
			Profile: httpserver.ProfileApache,
			NoDelay: true,
			TCP:     tcpsim.Options{InitialCwndSegments: v.iw},
		}
		sc := Scenario{
			Server: httpserver.ProfileApache, Client: v.mode,
			Env: netem.WAN, Workload: httpclient.FirstTime,
			Seed:           9800,
			ClientOverride: &cfg,
			ServerOverride: &srv,
		}
		avg, err := sw.RunAveraged(sc, site)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CwndRow{Label: v.label, Packets: avg.Packets, Seconds: avg.Seconds})
	}
	return rows, nil
}
