package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each iteration regenerates the experiment on the simulated
// testbed; the reproduced quantities (packets, seconds of virtual time,
// byte totals) are attached as custom benchmark metrics so `go test
// -bench . -benchmem` prints the same rows the paper reports.
//
//	BenchmarkTable4JigsawLAN-1  ...  181 pipeline_first_pa  0.49 pipeline_first_sec ...

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	_ "repro/internal/experiments"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/mux"
	"repro/internal/netem"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// benchSite returns the shared Microscape site (synthesized once).
func benchSite(b *testing.B) *webgen.Site {
	b.Helper()
	site, err := core.DefaultSite()
	if err != nil {
		b.Fatal(err)
	}
	return site
}

// regenerate generates the named experiment b.N times, at one run per
// cell, and returns the last result.
func regenerate(b *testing.B, name string) any {
	b.Helper()
	s := &exp.Session{Site: benchSite(b), Runs: 1}
	b.ResetTimer()
	var data any
	var err error
	for i := 0; i < b.N; i++ {
		if data, err = s.Generate(name); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return data
}

// reportValue attaches the named column of the row under the labels as
// a benchmark metric.
func reportValue(b *testing.B, unit string, tab *report.Table, column string, labels ...any) {
	b.Helper()
	v, ok := tab.Value(column, labels...).(float64)
	if !ok {
		b.Fatalf("%s: no number in column %q of row %v", tab.Title, column, labels)
	}
	b.ReportMetric(v, unit)
}

// reportRow attaches one table row's cells as benchmark metrics.
func reportRow(b *testing.B, prefix string, c core.Cell) {
	b.ReportMetric(c.Packets, prefix+"_pa")
	b.ReportMetric(c.Seconds, prefix+"_sec")
	b.ReportMetric(c.Bytes, prefix+"_bytes")
}

// BenchmarkTable1Environments measures a bare SYN/SYN-ACK/ACK handshake
// probe in each environment, confirming the Table 1 RTTs.
func BenchmarkTable1Environments(b *testing.B) {
	site := benchSite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, env := range netem.Environments {
			sc := core.Scenario{
				Server: httpserver.ProfileApache, Client: httpclient.ModeHTTP11Serial,
				Env: env, Workload: httpclient.Revalidate, Seed: uint64(i + 1),
			}
			cfg := httpclient.ModeHTTP11Serial.Config()
			cfg.PageOnly = true
			sc.ClientOverride = &cfg
			res, err := core.Run(sc, site)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Elapsed.Seconds(), env.String()+"_probe_sec")
		}
	}
}

func mainTableBench(b *testing.B, number int) {
	tab := regenerate(b, fmt.Sprint(number)).(core.Table)
	for _, row := range tab.Rows {
		key := map[string]string{
			"HTTP/1.0":                          "http10",
			"HTTP/1.1":                          "http11",
			"HTTP/1.1 Pipelined":                "pipeline",
			"HTTP/1.1 Pipelined w. compression": "pipelinez",
		}[row.Label]
		reportRow(b, key+"_first", row.First)
		reportRow(b, key+"_reval", row.Reval)
	}
}

// BenchmarkTable3InitialTuning regenerates the initial (untuned) LAN
// revalidation investigation.
func BenchmarkTable3InitialTuning(b *testing.B) {
	for _, r := range regenerate(b, "3").([]core.Table3Row) {
		key := map[string]string{
			"HTTP/1.0":            "http10",
			"HTTP/1.1 Persistent": "persistent",
			"HTTP/1.1 Pipeline":   "pipeline",
		}[r.Label]
		b.ReportMetric(r.PktsTotal, key+"_pa")
		b.ReportMetric(r.Elapsed, key+"_sec")
	}
}

// Tables 4-9: server × environment pages.
func BenchmarkTable4JigsawLAN(b *testing.B) { mainTableBench(b, 4) }
func BenchmarkTable5ApacheLAN(b *testing.B) { mainTableBench(b, 5) }
func BenchmarkTable6JigsawWAN(b *testing.B) { mainTableBench(b, 6) }
func BenchmarkTable7ApacheWAN(b *testing.B) { mainTableBench(b, 7) }
func BenchmarkTable8JigsawPPP(b *testing.B) { mainTableBench(b, 8) }
func BenchmarkTable9ApachePPP(b *testing.B) { mainTableBench(b, 9) }

func browserTableBench(b *testing.B, number int) {
	tab := regenerate(b, fmt.Sprint(number)).(core.Table)
	for _, row := range tab.Rows {
		key := "netscape"
		if row.Label == "Internet Explorer" {
			key = "msie"
		}
		reportRow(b, key+"_first", row.First)
		reportRow(b, key+"_reval", row.Reval)
	}
}

// BenchmarkTable10BrowsersJigsaw and 11: product browsers over PPP.
func BenchmarkTable10BrowsersJigsaw(b *testing.B) { browserTableBench(b, 10) }
func BenchmarkTable11BrowsersApache(b *testing.B) { browserTableBench(b, 11) }

// BenchmarkModemCompression regenerates the §8.2.1 single-GET modem
// comparison (paper: 67 packets/12.21s uncompressed vs 21/4.35 deflated).
func BenchmarkModemCompression(b *testing.B) {
	tab := regenerate(b, "modem").([]*report.Table)[0] // Jigsaw
	const (
		raw     = "Uncompressed HTML, modem compression off"
		v42bis  = "Uncompressed HTML, V.42bis modem compression"
		deflate = "Deflate-compressed HTML, modem compression off"
	)
	reportValue(b, "raw_pa", tab, "Pa", raw)
	reportValue(b, "raw_sec", tab, "Sec", raw)
	reportValue(b, "v42bis_sec", tab, "Sec", v42bis)
	reportValue(b, "deflate_pa", tab, "Pa", deflate)
	reportValue(b, "deflate_sec", tab, "Sec", deflate)
}

// BenchmarkTagCaseCompression regenerates the markup-case deflate note
// (paper: lower ≈ .27 vs mixed ≈ .35).
func BenchmarkTagCaseCompression(b *testing.B) {
	var rows []core.TagCaseRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.TagCaseTable()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(rows[0].Ratio, "lower_ratio")
	b.ReportMetric(rows[1].Ratio, "mixed_ratio")
	b.ReportMetric(rows[2].Ratio, "upper_ratio")
}

// BenchmarkCSSReplacement regenerates Figure 1 and the whole-page
// image→CSS analysis.
func BenchmarkCSSReplacement(b *testing.B) {
	site := benchSite(b)
	b.ResetTimer()
	var rep webgen.CSSReport
	for i := 0; i < b.N; i++ {
		rep = site.CSSReplacements()
	}
	b.StopTimer()
	fig := webgen.FigureOneReplacement()
	b.ReportMetric(float64(fig.GIFBytes), "fig1_gif_bytes")
	b.ReportMetric(float64(fig.CSSBytes()), "fig1_css_bytes")
	b.ReportMetric(float64(rep.RequestsSaved), "requests_saved")
	b.ReportMetric(float64(rep.NetSavings()), "net_bytes_saved")
}

// BenchmarkPNGConversion regenerates the GIF→PNG / animated GIF→MNG
// experiment (paper: 103299→92096 and 24988→16329 bytes).
func BenchmarkPNGConversion(b *testing.B) {
	site := benchSite(b)
	b.ResetTimer()
	var rep webgen.ConversionReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = site.ConvertImages()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.StaticGIF), "static_gif_bytes")
	b.ReportMetric(float64(rep.StaticPNG), "static_png_bytes")
	b.ReportMetric(float64(rep.AnimGIF), "anim_gif_bytes")
	b.ReportMetric(float64(rep.AnimMNG), "anim_mng_bytes")
}

// BenchmarkNagleInteraction regenerates the Nagle/delayed-ACK ablation.
func BenchmarkNagleInteraction(b *testing.B) {
	tab := regenerate(b, "nagle").([]*report.Table)[0]
	reportValue(b, "serial_nodelay_sec", tab, "Sec", "Serial client, server TCP_NODELAY")
	reportValue(b, "serial_nagle_sec", tab, "Sec", "Serial client, server Nagle")
}

// BenchmarkResetScenario regenerates the connection-management (server
// early-close) experiment.
func BenchmarkResetScenario(b *testing.B) {
	tab := regenerate(b, "reset").([]*report.Table)[0]
	reportValue(b, "graceful_sec", tab, "Sec", "Graceful half-close after 5 requests")
	reportValue(b, "naive_sec", tab, "Sec", "Naive full close after 5 requests")
	reportValue(b, "naive_resets", tab, "Resets", "Naive full close after 5 requests")
}

// BenchmarkFlushPolicyAblation sweeps the pipelining buffer/timer grid.
func BenchmarkFlushPolicyAblation(b *testing.B) {
	tab := regenerate(b, "flush").([]*report.Table)[0]
	best := tab.Rows[0][:2] // the (buffer, timer) labels of the fastest cell
	for _, r := range tab.Rows {
		if tab.Value("Sec", r[:2]...).(float64) < tab.Value("Sec", best...).(float64) {
			best = r[:2]
		}
	}
	b.ReportMetric(float64(best[0].(int)), "best_buffer_bytes")
	reportValue(b, "best_sec", tab, "Sec", best...)
}

// BenchmarkScenarioThroughput measures raw simulator speed: one pipelined
// WAN first-time retrieval per iteration.
func BenchmarkScenarioThroughput(b *testing.B) {
	site := benchSite(b)
	sc := core.Scenario{
		Server: httpserver.ProfileApache, Client: httpclient.ModeHTTP11Pipelined,
		Env: netem.WAN, Workload: httpclient.FirstTime, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(sc, site); err != nil {
			b.Fatal(err)
		}
	}
}

// engineBenchState drives a self-perpetuating timer population: every
// firing schedules a successor, so the pending set stays at its seeded
// depth — the shape of a population-scale run where thousands of
// connections each keep a handful of timers live.
type engineBenchState struct {
	s    *sim.Simulator
	rng  *sim.Rand
	left int
}

func engineBenchFire(a any) {
	st := a.(*engineBenchState)
	if st.left == 0 {
		return
	}
	st.left--
	// 1 in 8 events is retransmission/delayed-ACK-scale (out to 200ms);
	// the rest are packet-scale (µs) — the simulator's observed mix.
	var d time.Duration
	if st.left&7 == 0 {
		d = time.Duration(st.rng.Intn(int(200 * time.Millisecond)))
	} else {
		d = time.Duration(st.rng.Intn(int(500 * time.Microsecond)))
	}
	st.s.ScheduleArg(d, engineBenchFire, st)
}

func engineWorkload(e sim.Engine, depth, events int) time.Duration {
	s := sim.NewWithEngine(e)
	st := &engineBenchState{s: s, rng: sim.NewRand(1), left: events}
	start := time.Now()
	for i := 0; i < depth; i++ {
		s.ScheduleArg(time.Duration(st.rng.Intn(int(500*time.Microsecond))), engineBenchFire, st)
	}
	s.Run()
	return time.Since(start)
}

// BenchmarkEngine pins the event-engine redesign: the same deep mixed
// timer workload on the timer wheel and on the legacy heap queue, with
// the throughput of each — and the wheel:heap ratio — attached as
// metrics so perfdiff gates the speedup, not an anecdote.
func BenchmarkEngine(b *testing.B) {
	const depth, events = 4096, 300_000
	var wheel, heap time.Duration
	for i := 0; i < b.N; i++ {
		wheel += engineWorkload(sim.EngineWheel, depth, events)
		heap += engineWorkload(sim.EngineHeap, depth, events)
	}
	total := float64(events) * float64(b.N)
	wheelEPS := total / wheel.Seconds()
	heapEPS := total / heap.Seconds()
	b.ReportMetric(wheelEPS, "events_per_sec")
	b.ReportMetric(heapEPS, "heap_events_per_sec")
	b.ReportMetric(wheelEPS/heapEPS, "engine_speedup_ratio")
}

// BenchmarkPacketPath measures the steady-state TCP wire path: bulk
// transfers over an established connection, reporting packet throughput
// and — the zero-alloc discipline's pinned number — heap allocations
// per simulated packet.
func BenchmarkPacketPath(b *testing.B) {
	const payloadLen = 2_000_000
	payload := make([]byte, payloadLen)

	s := sim.NewWithEngine(sim.EngineWheel)
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	server := n.AddHost("server")
	cfg := netem.Config{BitsPerSecond: 100_000_000, PropagationDelay: 5 * time.Millisecond, MTU: 1500}
	n.ConnectHosts(client, server, netem.NewAsymPath(s, "t", cfg, cfg))

	var srvConn *tcpsim.Conn
	server.Listen(80, tcpsim.Options{}, func(c *tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{Data: func(c *tcpsim.Conn, d []byte) { srvConn = c }}
	})
	client.Dial("server", 80, tcpsim.Options{}, &tcpsim.Callbacks{
		Connect: func(c *tcpsim.Conn) { c.Write([]byte("GET")) },
	})
	s.Run() // handshake + request; the connection stays open
	if srvConn == nil {
		b.Fatal("request never reached the server")
	}

	const runs = 4
	var allocs float64
	before := n.Packets()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocs += testing.AllocsPerRun(runs, func() {
			srvConn.Write(payload)
			s.Run()
		})
	}
	b.StopTimer()
	elapsed := time.Since(start)
	packets := n.Packets() - before
	perRun := float64(packets) / float64(b.N*(runs+1))
	b.ReportMetric(allocs/(float64(b.N)*perRun), "allocs_per_packet")
	b.ReportMetric(float64(packets)/elapsed.Seconds(), "packets_per_sec")
}

// BenchmarkSiteSynthesis measures Microscape generation (image search +
// HTML emission).
func BenchmarkSiteSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := webgen.Microscape(webgen.Options{Seed: uint64(i + 2)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeProbe regenerates the range-request ("poor man's
// multiplexing") experiment: revalidation after a site revision, with and
// without 512-byte metadata probes.
func BenchmarkRangeProbe(b *testing.B) {
	tab := regenerate(b, "range").([]*report.Table)[0]
	reportValue(b, "plain_meta_sec", tab, "Metadata Sec", "Conditional GET (full changed bodies inline)")
	reportValue(b, "probe_meta_sec", tab, "Metadata Sec", "Conditional GET + Range probe (512 bytes)")
	reportValue(b, "probe_206s", tab, "206s", "Conditional GET + Range probe (512 bytes)")
}

// BenchmarkHeaderRedundancy regenerates the compact-wire-representation
// estimate (paper: "an additional factor of five or ten").
func BenchmarkHeaderRedundancy(b *testing.B) {
	site := benchSite(b)
	b.ResetTimer()
	var rows []core.HeaderRedundancyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.HeaderRedundancy(site)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows[0].RequestBytes), "plain_bytes")
	b.ReportMetric(rows[1].Ratio, "stream_ratio")
	b.ReportMetric(rows[2].Ratio, "delta_ratio")
}

// BenchmarkInitialCwnd regenerates the slow-start initial-window ablation.
func BenchmarkInitialCwnd(b *testing.B) {
	tab := regenerate(b, "cwnd").([]*report.Table)[0]
	reportValue(b, "iw1_plain_sec", tab, "Sec", "IW=1, identity HTML")
	reportValue(b, "iw1_deflate_sec", tab, "Sec", "IW=1, deflate HTML")
	reportValue(b, "iw2_plain_sec", tab, "Sec", "IW=2, identity HTML")
}

// BenchmarkMuxLoopback pins the mux framing layer's raw throughput: two
// sessions wired back to back in memory (no simulator, no network), the
// client opening a page's worth of streams per iteration and the server
// answering each with an 8 KB body. Frames per wall-clock second rides
// under the same hard perf gate as the event engine.
func BenchmarkMuxLoopback(b *testing.B) {
	const streams, objLen = 40, 8192
	body := make([]byte, objLen)
	reqFields := []mux.Field{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/object"},
		{Name: ":authority", Value: "server"},
	}
	respFields := []mux.Field{
		{Name: ":status", Value: "200"},
		{Name: "content-type", Value: "image/gif"},
	}
	var frames float64
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var client, server *mux.Session
		server = mux.NewServer(func(p []byte) { client.Feed(p) })
		client = mux.NewClient(func(p []byte) { server.Feed(p) })
		server.OnHeaders = func(st *mux.Stream, _ []mux.Field, _ bool) {
			server.WriteHeaders(st, respFields, false)
			server.WriteData(st, body, true)
		}
		done := 0
		client.OnData = func(_ *mux.Stream, _ []byte, end bool) {
			if end {
				done++
			}
		}
		client.Start()
		server.Start()
		for j := 0; j < streams; j++ {
			client.OpenStream(reqFields, true, 0)
		}
		if done != streams {
			b.Fatalf("completed %d streams, want %d", done, streams)
		}
		if err := client.CloseCheck(); err != nil {
			b.Fatal(err)
		}
		frames += float64(client.Stats.FramesSent + server.Stats.FramesSent)
	}
	b.StopTimer()
	b.ReportMetric(frames/time.Since(start).Seconds(), "mux_frames_per_sec")
}
