package main

import (
	"encoding/json"
	"io"
)

// metricSpec declares one metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are what a user of the simulator pays, per workload; the
// untraced run reports them. Host time only: simulated time is fidelity
// and lives with the per-layer metrics.
//
// The bounds of the timed metrics are three to four times the
// run-to-run spread (interquartile range over median, ten seeds)
// measured on the shared two-core VM this was sized on: 3.4-5.7 %. The
// allocation metrics repeat to 0.4 % or better.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"round_p50_ms", "ms", "lower", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "1", "lower", 0.02},
	{"alloc_kb_per_op", "KB", "lower", 0.02},
}

// blockNames are the cell blocks core.run_p50_us.<block> reports.
var blockNames = []string{
	"http10", "serial", "pipelined", "first", "reval", // h1_grid
	"deflate",                                       // deflate_grid
	"mux_clean", "h1_faults", "mux_faults", "proxy", // framed_fault_grid
}

// timedExperiments are the registered experiments that cost enough host
// time to have a metric each; the others (Table 1, css, headers) are
// summed under exp.generate_ms.other.
var timedExperiments = []string{
	"3", "4", "5", "6", "7", "8", "9", "10", "11", "modem", "tagcase", "png", "nagle", "reset",
	"flush", "range", "cwnd", "proxy", "faults", "variance", "mux", "mux-faults", "blame",
}

func generateMetric(experiment string) string {
	for _, name := range timedExperiments {
		if name == experiment {
			return "exp.generate_ms." + name
		}
	}
	return "exp.generate_ms.other"
}

// sharedLayers are the repro/internal packages whose CPU share is
// reported under their own name.
var sharedLayers = []string{
	"sim", "netem", "tcpsim", "httpmsg", "htmlparse", "flatez", "mux", "httpclient", "httpserver",
	"proxy", "cache", "core", "obs", "causality", "report", "trace",
}

// codecLayers are the content codecs, reported together.
var codecLayers = map[string]bool{"webgen": true, "pngenc": true, "gifenc": true, "lzw": true, "css": true}

// shareMetric names the cpu_share_pct metric a folded layer adds to, so
// that the shares of one run sum to 100.
func shareMetric(layer string) string {
	switch {
	case layer == layerGC:
		return "goruntime.gc_cpu_share_pct"
	case layer == layerRuntime:
		return "goruntime.other_cpu_share_pct"
	case layer == layerBench:
		return "bench.cpu_share_pct"
	case codecLayers[layer]:
		return "codecs.cpu_share_pct"
	}
	for _, l := range sharedLayers {
		if l == layer {
			return l + ".cpu_share_pct"
		}
	}
	return "misc.cpu_share_pct" // exp, experiments, faults, stats, telemetry
}

// perLayer are the traced run's metrics, one layer at a time. Sources:
// a probe of the layer's public functions, a deterministic count from
// round 0, the time of the bench's own spans, or the CPU-profile fold.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	l := []metricSpec{
		{name: "sim.timer_storm_events_per_s", unit: "1/s", better: "higher"},
		{name: "sim.events_per_op", unit: "count", better: "lower"},
		{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},
		{name: "netem.path_ns_per_packet", unit: "ns", better: "lower"},
		{name: "netem.drops_per_op", unit: "count", better: "lower"},
		{name: "tcpsim.bulk_clean_packets_per_s", unit: "1/s", better: "higher"},
		{name: "tcpsim.bulk_clean_allocs_per_packet", unit: "count", better: "lower"},
		{name: "tcpsim.bulk_lossy_packets_per_s", unit: "1/s", better: "higher"},
		{name: "tcpsim.tinygram_packets_per_s", unit: "1/s", better: "higher"},
		{name: "tcpsim.conn_churn_conns_per_s", unit: "1/s", better: "higher"},
		{name: "tcpsim.packets_per_op", unit: "count", better: "lower"},
		{name: "tcpsim.retransmits_per_op", unit: "count", better: "lower"},
		{name: "tcpsim.rto_timeouts_per_op", unit: "count", better: "lower"},
		{name: "httpmsg.parse_page_us", unit: "us", better: "lower"},
		{name: "httpmsg.parse_page_allocs", unit: "count", better: "lower"},
		{name: "httpmsg.parse_requests_us", unit: "us", better: "lower"},
		{name: "httpmsg.serialize_page_us", unit: "us", better: "lower"},
		{name: "htmlparse.extract_page_us", unit: "us", better: "lower"},
		{name: "htmlparse.extract_page_allocs", unit: "count", better: "lower"},
		{name: "flatez.deflate_html_us", unit: "us", better: "lower"},
		{name: "flatez.inflate_html_us", unit: "us", better: "lower"},
		{name: "mux.loopback_frames_per_s", unit: "1/s", better: "higher"},
		{name: "mux.frame_parse_ns_per_frame", unit: "ns", better: "lower"},
		{name: "mux.header_encode_ns_per_block", unit: "ns", better: "lower"},
		{name: "mux.header_decode_ns_per_block", unit: "ns", better: "lower"},
		{name: "mux.burst_codec_us_per_page", unit: "us", better: "lower"},
		{name: "mux.streams_per_op", unit: "count", better: "lower"},
		{name: "mux.header_bytes_saved_per_op", unit: "count", better: "higher"},
		{name: "mux.flow_stalls_per_op", unit: "count", better: "lower"},
		{name: "mux.streams_reset_per_op", unit: "count", better: "lower"},
		{name: "httpclient.requests_per_op", unit: "count", better: "lower"},
		{name: "httpclient.retried_per_op", unit: "count", better: "lower"},
		{name: "httpclient.timeouts_per_op", unit: "count", better: "lower"},
		{name: "httpclient.fallbacks_per_op", unit: "count", better: "lower"},
		{name: "httpclient.requests_failed_per_op", unit: "count", better: "lower"},
		{name: "httpserver.faults_injected_per_op", unit: "count", better: "lower"},
		{name: "proxy.upstream_requests_per_op", unit: "count", better: "lower"},
		{name: "cache.hit_ratio", unit: "1", better: "higher"},
		{name: "cache.store_lookup_ns", unit: "ns", better: "lower"},
		{name: "core.run_p50_us", unit: "us", better: "lower"},
		{name: "core.run_p99_us", unit: "us", better: "lower"},
		{name: "core.run_samples", unit: "count", better: "higher"},
	}
	for _, b := range blockNames {
		l = append(l, metricSpec{name: "core.run_p50_us." + b, unit: "us", better: "lower"})
	}
	l = append(l,
		metricSpec{name: "core.fidelity_sec_err_pct", unit: "%", better: "lower"},
		metricSpec{name: "core.fidelity_pa_err_pct", unit: "%", better: "lower"},
		metricSpec{name: "core.fidelity_bytes_err_pct", unit: "%", better: "lower"},
		metricSpec{name: "core.fidelity_rank_inversions", unit: "count", better: "lower"},
		metricSpec{name: "core.run_observed_us", unit: "us", better: "lower"},
		metricSpec{name: "trace.write_pcap_us", unit: "us", better: "lower"},
		metricSpec{name: "obs.write_perfetto_us", unit: "us", better: "lower"},
		metricSpec{name: "causality.analyze_us_per_kevent", unit: "us", better: "lower"},
		metricSpec{name: "report.waterfall_us", unit: "us", better: "lower"},
		metricSpec{name: "report.blame_summary_us", unit: "us", better: "lower"},
		metricSpec{name: "report.critical_path_us", unit: "us", better: "lower"},
		metricSpec{name: "stats.latency_fprint_us", unit: "us", better: "lower"},
		metricSpec{name: "obs.events_per_op", unit: "count", better: "lower"},
		metricSpec{name: "obs.spans_per_op", unit: "count", better: "lower"},
		metricSpec{name: "trace.pcap_bytes_per_op", unit: "count", better: "lower"},
		metricSpec{name: "obs.perfetto_bytes_per_op", unit: "count", better: "lower"},
		metricSpec{name: "obs.publish_armed_ns", unit: "ns", better: "lower"},
		metricSpec{name: "obs.publish_nil_ns", unit: "ns", better: "lower"},
		metricSpec{name: "obs.armed_over_nil_ratio", unit: "1", better: "lower"},
	)
	for _, name := range timedExperiments {
		l = append(l, metricSpec{name: "exp.generate_ms." + name, unit: "ms", better: "lower"})
	}
	l = append(l,
		metricSpec{name: "exp.generate_ms.other", unit: "ms", better: "lower"},
		metricSpec{name: "report.render_all_ms", unit: "ms", better: "lower"},
		metricSpec{name: "exp.pool_speedup_ratio", unit: "1", better: "higher"},
		metricSpec{name: "exp.collector_csv_ms", unit: "ms", better: "lower"},
		metricSpec{name: "webgen.microscape_ms", unit: "ms", better: "lower"},
		metricSpec{name: "webgen.convert_images_ms", unit: "ms", better: "lower"},
		metricSpec{name: "lzw.modem_compress_page_us", unit: "us", better: "lower"},
	)
	for _, layer := range sharedLayers {
		l = append(l, metricSpec{name: layer + ".cpu_share_pct", unit: "%", better: "lower"})
	}
	return append(l,
		metricSpec{name: "codecs.cpu_share_pct", unit: "%", better: "lower"},
		metricSpec{name: "misc.cpu_share_pct", unit: "%", better: "lower"},
		metricSpec{name: "bench.cpu_share_pct", unit: "%", better: "lower"},
		metricSpec{name: "goruntime.gc_cpu_share_pct", unit: "%", better: "lower"},
		metricSpec{name: "goruntime.other_cpu_share_pct", unit: "%", better: "lower"},
		metricSpec{name: "goruntime.num_gc_per_op", unit: "count", better: "lower"},
		metricSpec{name: "goruntime.peak_rss_mb", unit: "MB", better: "lower"},
		metricSpec{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
		metricSpec{name: "bench.profile_samples", unit: "count", better: "higher"},
	)
}

// runSeconds is how long one run measures; BENCHMARK.json fixes it and
// the driver passes it back as --seconds.
const runSeconds = 10

// writeSpec prints BENCHMARK.json from the tables above, so the file
// and the program cannot disagree.
func writeSpec(w io.Writer) error {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "repro/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, s := range workloadSpecs {
		spec.Workloads = append(spec.Workloads, workloadJSON{s.name, s.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2eJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(spec)
}
