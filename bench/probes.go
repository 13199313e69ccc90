package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/flatez"
	"repro/internal/htmlparse"
	"repro/internal/httpmsg"
	"repro/internal/httpserver"
	"repro/internal/lzw"
	"repro/internal/mux"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// The probes give every layer a number of its own, whichever workload
// the traced run measured: each calls one layer's public functions
// directly with inputs taken from the Microscape site, or runs a round
// of another workload under the recorder. They run after the CPU
// profile has stopped, so they never count towards the workload's
// shares. Every probe files its samples under the metric's name.

// probeSeed seeds the probe rounds; probes do not vary with -seed.
const probeSeed = 1

// prober runs probes at full size or, for tests, once each.
type prober struct {
	rec     *recorder
	batches int  // samples per probe
	quick   bool // one iteration per sample, whatever the probe asks for
}

func (p *prober) iters(n int) int {
	if p.quick {
		return 1
	}
	return n
}

// per times batches of iters calls of fn and files, per batch, the time
// of one call in units of unit (time.Nanosecond, time.Microsecond, ...).
func (p *prober) per(key string, unit time.Duration, iters int, fn func()) {
	iters = p.iters(iters)
	for b := 0; b < p.batches; b++ {
		d := p.rec.time("probe "+key, -1, func() {
			for i := 0; i < iters; i++ {
				fn()
			}
		})
		p.rec.observe(key, float64(d)/float64(unit)/float64(iters))
	}
}

// allocs files the heap allocations of one call of fn, averaged over
// iters calls.
func (p *prober) allocs(key string, iters int, fn func()) {
	iters = p.iters(iters)
	m0 := mallocs()
	for i := 0; i < iters; i++ {
		fn()
	}
	p.rec.observe(key, float64(mallocs()-m0)/float64(iters))
}

// segmentSize is how the wire-format probes cut their input: one full
// Ethernet TCP segment, as the simulated connections deliver it.
const segmentSize = 1460

func chunks(b []byte, fn func(chunk []byte)) {
	for len(b) > 0 {
		n := min(len(b), segmentSize)
		fn(b[:n])
		b = b[n:]
	}
}

func runProbes(rec *recorder, quick bool) error {
	// One P, like the workloads the probes stand in for; only the
	// experiments, which run on a pool, get two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := &prober{rec: rec, batches: 5, quick: quick}
	rounds := 2
	if quick {
		p.batches, rounds = 1, 1
	}

	heavy := *p // whole-site work: fewer, longer samples
	heavy.batches = min(p.batches, 3)
	var site *webgen.Site
	var err error
	heavy.per("webgen.microscape_ms", time.Millisecond, 1, func() {
		site, err = webgen.Microscape(webgen.Options{Seed: 1})
	})
	if err != nil {
		return fmt.Errorf("probe: synthesizing the site: %w", err)
	}
	heavy.per("webgen.convert_images_ms", time.Millisecond, 1, func() { _, err = site.ConvertImages() })
	if err != nil {
		return fmt.Errorf("probe: converting images: %w", err)
	}
	if err := p.codecs(site); err != nil {
		return err
	}
	if err := p.messages(site); err != nil {
		return err
	}
	if err := p.framing(site); err != nil {
		return err
	}
	p.plumbing(site)
	if err := p.observed(site, rounds); err != nil {
		return err
	}
	if err := p.workloadRounds(site, rounds); err != nil {
		return err
	}
	names := exp.Names()
	if quick {
		names = names[:3]
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	return p.experiments(site, names)
}

// codecs probes flatez on the site's HTML and the modem compressor on
// the page cut into packets.
func (p *prober) codecs(site *webgen.Site) error {
	html := site.HTML.Body
	var z []byte
	p.per("flatez.deflate_html_us", time.Microsecond, 4, func() { z = flatez.Compress(html) })
	var back []byte
	var err error
	p.per("flatez.inflate_html_us", time.Microsecond, 16, func() { back, err = flatez.Decompress(z) })
	if err != nil || !bytes.Equal(back, html) {
		return fmt.Errorf("probe: flatez round trip failed: %v", err)
	}
	p.per("lzw.modem_compress_page_us", time.Microsecond, 4, func() {
		m := lzw.NewModemCompressor()
		chunks(html, func(c []byte) { m.CompressedBits(c) })
	})
	return nil
}

// messages probes the HTTP/1.x wire codecs with one page load's worth
// of messages — the page and its 42 images — and the HTML link
// extractor with the page.
func (p *prober) messages(site *webgen.Site) error {
	var responses []*httpmsg.Response
	var respWire, reqWire []byte
	for _, path := range site.Paths() {
		obj, _ := site.Object(path)
		resp := httpserver.CanonicalResponse(httpserver.ProfileApache, obj)
		responses = append(responses, resp)
		respWire = append(respWire, resp.Marshal()...)
		req := httpmsg.Request{Method: "GET", Target: path, Proto: httpmsg.Proto11}
		req.Header.Add("Host", "server")
		req.Header.Add("Accept", "*/*")
		req.Header.Add("User-Agent", "libwww-robot/5.1")
		reqWire = append(reqWire, req.Marshal()...)
	}
	n := len(responses)

	var parseErr error
	parsePage := func() {
		var rp httpmsg.ResponseParser
		for i := 0; i < n; i++ {
			rp.PushExpectation("GET")
		}
		got := 0
		chunks(respWire, func(c []byte) {
			out, err := rp.Feed(c)
			if err != nil {
				parseErr = err
			}
			got += len(out)
		})
		if got != n && parseErr == nil {
			parseErr = fmt.Errorf("parsed %d of %d responses", got, n)
		}
	}
	p.per("httpmsg.parse_page_us", time.Microsecond, 16, parsePage)
	p.allocs("httpmsg.parse_page_allocs", 16, parsePage)
	p.per("httpmsg.parse_requests_us", time.Microsecond, 64, func() {
		var rp httpmsg.RequestParser
		got := 0
		chunks(reqWire, func(c []byte) {
			out, err := rp.Feed(c)
			if err != nil {
				parseErr = err
			}
			got += len(out)
		})
		if got != n && parseErr == nil {
			parseErr = fmt.Errorf("parsed %d of %d requests", got, n)
		}
	})
	if parseErr != nil {
		return fmt.Errorf("probe: httpmsg: %w", parseErr)
	}
	p.per("httpmsg.serialize_page_us", time.Microsecond, 64, func() {
		for _, r := range responses {
			r.Marshal()
		}
	})

	links := 0
	extract := func() {
		var e htmlparse.LinkExtractor
		links = 0
		chunks(site.HTML.Body, func(c []byte) { links += len(e.Feed(c)) })
	}
	p.per("htmlparse.extract_page_us", time.Microsecond, 16, extract)
	p.allocs("htmlparse.extract_page_allocs", 16, extract)
	if links == 0 {
		return fmt.Errorf("probe: htmlparse found no links in the page")
	}
	return nil
}

// framing probes the mux layer: back-to-back sessions in memory, the
// frame parser, the header coder and the burst record codec.
func (p *prober) framing(site *webgen.Site) error {
	const streams, objLen = 40, 8192
	body := make([]byte, objLen)
	reqFields := []mux.Field{{Name: ":method", Value: "GET"}, {Name: ":path", Value: "/object"}, {Name: ":authority", Value: "server"}}
	respFields := []mux.Field{{Name: ":status", Value: "200"}, {Name: "content-type", Value: "image/gif"}}
	var loopErr error
	for b := 0; b < p.batches; b++ {
		frames := 0
		d := p.rec.time("probe mux.loopback_frames_per_s", -1, func() {
			for i := 0; i < p.iters(16); i++ {
				var client, server *mux.Session
				server = mux.NewServer(func(b []byte) { client.Feed(b) })
				client = mux.NewClient(func(b []byte) { server.Feed(b) })
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
				if err := client.CloseCheck(); err != nil {
					loopErr = err
				} else if done != streams {
					loopErr = fmt.Errorf("completed %d of %d streams", done, streams)
				}
				frames += client.Stats.FramesSent + server.Stats.FramesSent
			}
		})
		p.rec.observe("mux.loopback_frames_per_s", float64(frames)/d.Seconds())
	}
	if loopErr != nil {
		return fmt.Errorf("probe: mux loopback: %w", loopErr)
	}

	// One page of frames: a HEADERS and the DATA frames of each object
	// at the default 1024-byte frame size.
	var wire []byte
	nframes := 0
	for i, path := range site.Paths() {
		obj, _ := site.Object(path)
		id := uint32(2*i + 1)
		wire = mux.AppendFrame(wire, mux.FrameHeaders, 0, id, make([]byte, 24))
		nframes++
		for b := obj.Body; len(b) > 0; nframes++ {
			n := min(len(b), mux.DefaultMaxFrameSize)
			wire = mux.AppendFrame(wire, mux.FrameData, 0, id, b[:n])
			b = b[n:]
		}
	}
	var frameErr error
	p.per("mux.frame_parse_ns_per_frame", time.Duration(nframes), 16, func() {
		var fr mux.FrameReader
		got := 0
		chunks(wire, func(c []byte) {
			fs, err := fr.Feed(c)
			if err != nil {
				frameErr = err
			}
			got += len(fs)
		})
		if got != nframes && frameErr == nil {
			frameErr = fmt.Errorf("parsed %d of %d frames", got, nframes)
		}
	})
	if frameErr != nil {
		return fmt.Errorf("probe: mux frames: %w", frameErr)
	}

	// One page of response header blocks through one coder pair, as one
	// connection would carry them.
	var blocks [][]mux.Field
	var records []mux.BurstRecord
	for _, path := range site.Paths() {
		obj, _ := site.Object(path)
		var fields []mux.Field
		fields = append(fields, mux.Field{Name: ":status", Value: "200"})
		for _, f := range httpserver.CanonicalResponse(httpserver.ProfileApache, obj).Header.Fields() {
			fields = append(fields, mux.Field{Name: f.Name, Value: f.Value})
		}
		blocks = append(blocks, fields)
		records = append(records, mux.BurstRecord{Path: path, ContentType: obj.ContentType,
			ETag: obj.ETag, LastModified: obj.LastModified, Body: obj.Body})
	}
	var encoded [][]byte
	p.per("mux.header_encode_ns_per_block", time.Duration(len(blocks)), 64, func() {
		var enc mux.Encoder
		encoded = encoded[:0]
		for _, f := range blocks {
			encoded = append(encoded, enc.Encode(nil, f))
		}
	})
	var decodeErr error
	p.per("mux.header_decode_ns_per_block", time.Duration(len(blocks)), 64, func() {
		var dec mux.Decoder
		for i, b := range encoded {
			fields, err := dec.Decode(b)
			if err != nil {
				decodeErr = err
			} else if len(fields) != len(blocks[i]) {
				decodeErr = fmt.Errorf("block %d decoded to %d of %d fields", i, len(fields), len(blocks[i]))
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("probe: mux header coder: %w", decodeErr)
	}
	var burstErr error
	p.per("mux.burst_codec_us_per_page", time.Microsecond, 64, func() {
		got, err := mux.DecodeBurst(mux.EncodeBurst(records))
		if err != nil {
			burstErr = err
		} else if len(got) != len(records) {
			burstErr = fmt.Errorf("decoded %d of %d records", len(got), len(records))
		}
	})
	if burstErr != nil {
		return fmt.Errorf("probe: mux burst codec: %w", burstErr)
	}
	return nil
}

func noop(any) {}

// plumbing probes the small per-call costs under everything else: one
// packet through a netem path, one cache store and lookup, one event
// published on an armed and on a nil bus.
func (p *prober) plumbing(site *webgen.Site) {
	const packets = 20_000
	cfg := netem.Config{BitsPerSecond: 100_000_000, PropagationDelay: 5 * time.Millisecond, MTU: 1500}
	p.per("netem.path_ns_per_packet", packets, 1, func() {
		s := sim.New()
		path := netem.NewAsymPath(s, "p", cfg, cfg)
		for i := 0; i < packets; i++ {
			path.AB.SendArg(nil, 1500, noop, nil)
		}
		s.Run()
	})

	paths := site.Paths()
	responses := make([]*httpmsg.Response, len(paths))
	for i, path := range paths {
		obj, _ := site.Object(path)
		responses[i] = httpserver.CanonicalResponse(httpserver.ProfileApache, obj)
	}
	p.per("cache.store_lookup_ns", time.Duration(len(paths)), 64, func() {
		c := cache.New(8<<20, func() sim.Time { return 0 })
		for i, path := range paths {
			c.Store(path, responses[i])
			c.Get(path)
		}
	})

	const events = 20_000
	p.per("obs.publish_armed_ns", events, 1, func() {
		bus := obs.New(sim.New())
		id := bus.ConnOpen("client:1", "server:80")
		for i := 0; i < events; i++ {
			bus.Cwnd(id, i, 65535)
		}
	})
	p.per("obs.publish_nil_ns", events, 8, func() {
		var bus *obs.Bus
		for i := 0; i < events; i++ {
			bus.Cwnd(0, i, 65535)
		}
	})
}

// observed runs the observed_explain cells armed and unarmed with the
// same seeds, for the cost ratio of observation, and times the
// causality analysis over each armed run's timeline.
func (p *prober) observed(site *webgen.Site, rounds int) error {
	var armed, plain time.Duration
	for r := 0; r < rounds; r++ {
		for i, c := range observedCells() {
			sc, err := core.ParseScenario(c.spec)
			if err != nil {
				return err
			}
			sc.Jitter, sc.Seed = true, opSeed(probeSeed, uint64(r), i)
			var res *core.RunResult
			armed += p.rec.time("probe core.Run armed", i, func() {
				res, err = core.Run(sc, site, core.WithCapture(), core.WithTimeline(), core.WithStats(), core.WithBlame())
			})
			if err == nil {
				plain += p.rec.time("probe core.Run unarmed", i, func() { _, err = core.Run(sc, site) })
			}
			if err != nil {
				return fmt.Errorf("probe: %s: %w", c.spec, err)
			}
			d := p.rec.time("probe causality.Analyze", i, func() { causality.Analyze(res.Timeline) })
			p.rec.observe("causality.analyze_us_per_kevent", us(d)/(float64(res.Timeline.Len())/1000))
		}
	}
	p.rec.observe("obs.armed_over_nil_ratio", float64(armed)/float64(plain))
	return nil
}

// workloadRounds runs rounds of the five seeded workloads under the
// recorder, so the per-block run times, the exporter times and the
// substrate item rates exist in every traced run, not only in the
// traced run of the workload that owns them.
func (p *prober) workloadRounds(site *webgen.Site, rounds int) error {
	for _, spec := range workloadSpecs {
		if spec.name == "table_all" {
			continue
		}
		w, err := spec.build(site, buildOptions{})
		if err != nil {
			return err
		}
		m := &meter{w: w, seed: probeSeed}
		id := p.rec.begin("probe rounds "+spec.name, -1)
		m.run(0, rounds, false, p.rec)
		p.rec.end(id)
		if m.failed > 0 {
			return fmt.Errorf("probe: %s: %s", spec.name, m.failures[0])
		}
	}
	return nil
}

// experiments generates and renders every registered experiment at one
// run per cell, once on a pool of two and once serially: the
// per-experiment times, the rendering time, the pool's speed-up and the
// metrics CSV export.
func (p *prober) experiments(site *webgen.Site, names []string) error {
	var pooled, serial, render time.Duration
	generate := map[string]time.Duration{}
	col := exp.NewCollector()
	for _, parallel := range []int{2, 1} {
		s := tableAllSession(site, 1, parallel)
		if parallel == 2 {
			s.Collector = col
		}
		for i, name := range names {
			x := runExperiment(name, s, i, p.rec)
			if x.res.failed != "" {
				return fmt.Errorf("probe: experiment %s: %s", name, x.res.failed)
			}
			if parallel == 1 {
				serial += x.generate
				continue
			}
			pooled += x.generate
			render += x.render
			generate[generateMetric(name)] += x.generate
		}
	}
	for key, d := range generate {
		p.rec.observe(key, ms(d))
	}
	p.rec.observe("report.render_all_ms", ms(render))
	p.rec.observe("exp.pool_speedup_ratio", float64(serial)/float64(pooled))
	var csvErr error
	p.per("exp.collector_csv_ms", time.Millisecond, 1, func() { csvErr = col.WriteCSV(io.Discard) })
	if csvErr != nil {
		return fmt.Errorf("probe: metrics CSV: %w", csvErr)
	}
	return nil
}
