// Package exp orchestrates experiment sweeps. It provides two pieces
// the paper's measurement methodology needs at scale: a declarative
// registry of named experiments (registry.go) and a structured per-run
// metrics record emitted as JSON or CSV alongside the text tables (this
// file). Runs fan out on sim.ForEach, the one worker pool.
//
// The package sits below internal/core: core fills Metrics records and
// drives the pool, while experiment registration and rendering live in
// internal/experiments, above both.
package exp

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Metrics is the structured record of one scenario execution — the
// quantities a tcpdump-plus-accounting harness would extract from a
// single run. Every field is filled by core.Run when the run is executed
// with core.WithMetrics.
type Metrics struct {
	// Experiment names the registry entry the run belongs to ("" for
	// direct core.Run calls).
	Experiment string `json:"experiment,omitempty"`
	// Scenario is the scenario's display string
	// (server/client/env/workload).
	Scenario string `json:"scenario"`
	// Seed is the effective seed of this run; Run is the repetition
	// index within its sweep cell.
	Seed uint64 `json:"seed"`
	Run  int    `json:"run"`

	// Packets counts segments in both directions, split into the
	// client→server and server→client components.
	Packets    int `json:"packets"`
	PacketsC2S int `json:"packets_c2s"`
	PacketsS2C int `json:"packets_s2c"`

	// PayloadBytes is TCP payload; WireBytes adds the 40-byte TCP/IP
	// header per packet; LinkWireBytes is what the link actually
	// serialized (after V.42bis modem compression, with framing).
	PayloadBytes  int64 `json:"payload_bytes"`
	WireBytes     int64 `json:"wire_bytes"`
	LinkWireBytes int64 `json:"link_wire_bytes"`

	// OverheadPct is the paper's %ov metric.
	OverheadPct float64 `json:"overhead_pct"`
	// ElapsedSeconds is first packet to last packet, like the paper's
	// tcpdump-based timings.
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Retransmissions counts segments sent more than once;
	// RTOTimeouts counts retransmission-timer expirations; Drops counts
	// packets discarded by the link loss model.
	Retransmissions int `json:"retransmissions"`
	RTOTimeouts     int `json:"rto_timeouts"`
	Drops           int `json:"drops"`

	// Dials is the number of outbound connections opened; SocketsUsed
	// the number the fetch consumed; MaxOpenConns the simultaneous-
	// connection high-water mark.
	Dials        int `json:"dials"`
	SocketsUsed  int `json:"sockets_used"`
	MaxOpenConns int `json:"max_open_conns"`

	// ClientCPUSeconds and ServerCPUSeconds are total simulated CPU
	// work consumed by each endpoint (sim.CPU.TotalWork).
	ClientCPUSeconds float64 `json:"client_cpu_seconds"`
	ServerCPUSeconds float64 `json:"server_cpu_seconds"`

	Responses200 int `json:"responses_200"`
	Responses304 int `json:"responses_304"`
	Responses206 int `json:"responses_206"`
	Errors       int `json:"errors"`
	Retried      int `json:"retried"`

	// Fault-injection and recovery accounting (all zero on fault-free
	// runs): client watchdog timeouts, requests that recovered after a
	// retry vs were dropped permanently, payload bytes delivered and then
	// re-fetched, summed failure→first-recovery intervals, protocol
	// fallbacks taken, and server-side faults fired.
	Timeouts          int     `json:"timeouts,omitempty"`
	RequestsRecovered int     `json:"requests_recovered,omitempty"`
	RequestsFailed    int     `json:"requests_failed,omitempty"`
	WastedBytes       int64   `json:"wasted_bytes,omitempty"`
	RecoverySeconds   float64 `json:"recovery_seconds,omitempty"`
	Fallbacks         int     `json:"fallbacks,omitempty"`
	FaultsInjected    int     `json:"faults_injected,omitempty"`

	// Multiplexed-protocol accounting (all zero outside the mux, mux-push
	// and burst client modes): client-opened streams, server push
	// promises made/claimed, pushed bytes the client never wanted,
	// HPACK-style header compression savings, and flow-control window
	// exhaustions on either endpoint.
	StreamsOpened     int   `json:"streams_opened,omitempty"`
	PushPromised      int   `json:"push_promised,omitempty"`
	PushUsed          int   `json:"push_used,omitempty"`
	PushWastedBytes   int64 `json:"push_wasted_bytes,omitempty"`
	HeaderBytesSaved  int64 `json:"header_bytes_saved,omitempty"`
	FlowControlStalls int   `json:"flow_control_stalls,omitempty"`

	// Mux fault-recovery accounting (all zero outside faulted framed
	// runs): streams torn down by RST_STREAM for error recovery, GOAWAY
	// session-close announcements on the connection, and watchdog
	// expiries proven to be flow-control deadlocks.
	StreamsReset      int `json:"streams_reset,omitempty"`
	Goaways           int `json:"goaways,omitempty"`
	DeadlocksDetected int `json:"deadlocks_detected,omitempty"`

	// TimelineEvents and TimelineSpans count the observability bus's
	// recorded events and request spans; both are zero when the run
	// executed without core.WithTimeline.
	TimelineEvents int `json:"timeline_events,omitempty"`
	TimelineSpans  int `json:"timeline_spans,omitempty"`

	// Causal delay attribution (all zero unless the run executed with
	// core.WithBlame): each request's elapsed time decomposed into
	// exclusive categories, summed over requests, in milliseconds. The
	// categories partition each request window, so their sum equals the
	// summed request elapsed time exactly. CriticalPathMs is the length
	// of the page-load dependency chain (root document → last-finishing
	// object through binding constraints); lower is better.
	BlameConnectMs   float64 `json:"blame_connect_ms,omitempty"`
	BlameRTOMs       float64 `json:"blame_rto_ms,omitempty"`
	BlameNagleMs     float64 `json:"blame_nagle_ms,omitempty"`
	BlameFlowMs      float64 `json:"blame_flow_ms,omitempty"`
	BlameSlowStartMs float64 `json:"blame_slowstart_ms,omitempty"`
	BlameServerMs    float64 `json:"blame_server_ms,omitempty"`
	BlameHOLMs       float64 `json:"blame_hol_ms,omitempty"`
	BlameWireMs      float64 `json:"blame_wire_ms,omitempty"`
	CriticalPathMs   float64 `json:"critical_path_ms,omitempty"`

	// SimEvents is the number of discrete events the simulation engine
	// fired during the run — a deterministic measure of engine work per
	// cell. SimEventsPerSec divides it by the run's wall-clock time; it
	// varies with host load, so it appears in the JSON records but not
	// in the deterministic CSV.
	SimEvents       uint64  `json:"sim_events"`
	SimEventsPerSec float64 `json:"sim_events_per_sec,omitempty"`

	// Dist carries the run's optional distribution metrics — per-request
	// latency quantiles in milliseconds (lat_queue_ms_p50, ...,
	// lat_total_ms_max), derived from the request-lifecycle spans — and
	// is nil unless the run executed with core.WithStats. Keys are
	// stable; CSV emission appends them after the fixed columns in
	// sorted order, with empty cells for records that lack a key.
	Dist map[string]float64 `json:"dist,omitempty"`

	// Cache and origin-side accounting for runs through the shared
	// caching proxy tier (all zero on direct client↔origin runs). On a
	// proxy run the Packets/Bytes fields above describe the client-side
	// (last-mile) link only; OriginPackets/OriginBytes describe the
	// proxy↔origin link.
	CacheHits          int     `json:"cache_hits,omitempty"`
	CacheMisses        int     `json:"cache_misses,omitempty"`
	CacheRevalidations int     `json:"cache_revalidations,omitempty"`
	CacheHitRatio      float64 `json:"cache_hit_ratio,omitempty"`
	CacheBytesSaved    int64   `json:"cache_bytes_saved,omitempty"`
	UpstreamRequests   int     `json:"upstream_requests,omitempty"`
	OriginPackets      int     `json:"origin_packets,omitempty"`
	OriginBytes        int64   `json:"origin_bytes,omitempty"`
}

// csvColumn is one fixed CSV column: its header and how a record's
// value is written.
type csvColumn struct {
	name string
	cell func(*Metrics) string
}

func text(name string, f func(*Metrics) string) csvColumn { return csvColumn{name, f} }

func count[T int | int64](name string, f func(*Metrics) T) csvColumn {
	return csvColumn{name, func(m *Metrics) string { return strconv.FormatInt(int64(f(m)), 10) }}
}

func decimal(name string, f func(*Metrics) float64) csvColumn {
	return csvColumn{name, func(m *Metrics) string { return strconv.FormatFloat(f(m), 'f', 6, 64) }}
}

// csvColumns is the CSV layout, in Metrics field order: every field but
// the wall-clock SimEventsPerSec and the optional Dist.
var csvColumns = []csvColumn{
	text("experiment", func(m *Metrics) string { return m.Experiment }),
	text("scenario", func(m *Metrics) string { return m.Scenario }),
	text("seed", func(m *Metrics) string { return strconv.FormatUint(m.Seed, 10) }),
	count("run", func(m *Metrics) int { return m.Run }),
	count("packets", func(m *Metrics) int { return m.Packets }),
	count("packets_c2s", func(m *Metrics) int { return m.PacketsC2S }),
	count("packets_s2c", func(m *Metrics) int { return m.PacketsS2C }),
	count("payload_bytes", func(m *Metrics) int64 { return m.PayloadBytes }),
	count("wire_bytes", func(m *Metrics) int64 { return m.WireBytes }),
	count("link_wire_bytes", func(m *Metrics) int64 { return m.LinkWireBytes }),
	decimal("overhead_pct", func(m *Metrics) float64 { return m.OverheadPct }),
	decimal("elapsed_seconds", func(m *Metrics) float64 { return m.ElapsedSeconds }),
	count("retransmissions", func(m *Metrics) int { return m.Retransmissions }),
	count("rto_timeouts", func(m *Metrics) int { return m.RTOTimeouts }),
	count("drops", func(m *Metrics) int { return m.Drops }),
	count("dials", func(m *Metrics) int { return m.Dials }),
	count("sockets_used", func(m *Metrics) int { return m.SocketsUsed }),
	count("max_open_conns", func(m *Metrics) int { return m.MaxOpenConns }),
	decimal("client_cpu_seconds", func(m *Metrics) float64 { return m.ClientCPUSeconds }),
	decimal("server_cpu_seconds", func(m *Metrics) float64 { return m.ServerCPUSeconds }),
	count("responses_200", func(m *Metrics) int { return m.Responses200 }),
	count("responses_304", func(m *Metrics) int { return m.Responses304 }),
	count("responses_206", func(m *Metrics) int { return m.Responses206 }),
	count("errors", func(m *Metrics) int { return m.Errors }),
	count("retried", func(m *Metrics) int { return m.Retried }),
	count("timeouts", func(m *Metrics) int { return m.Timeouts }),
	count("requests_recovered", func(m *Metrics) int { return m.RequestsRecovered }),
	count("requests_failed", func(m *Metrics) int { return m.RequestsFailed }),
	count("wasted_bytes", func(m *Metrics) int64 { return m.WastedBytes }),
	decimal("recovery_seconds", func(m *Metrics) float64 { return m.RecoverySeconds }),
	count("fallbacks", func(m *Metrics) int { return m.Fallbacks }),
	count("faults_injected", func(m *Metrics) int { return m.FaultsInjected }),
	count("streams_opened", func(m *Metrics) int { return m.StreamsOpened }),
	count("push_promised", func(m *Metrics) int { return m.PushPromised }),
	count("push_used", func(m *Metrics) int { return m.PushUsed }),
	count("push_wasted_bytes", func(m *Metrics) int64 { return m.PushWastedBytes }),
	count("header_bytes_saved", func(m *Metrics) int64 { return m.HeaderBytesSaved }),
	count("flow_control_stalls", func(m *Metrics) int { return m.FlowControlStalls }),
	count("streams_reset", func(m *Metrics) int { return m.StreamsReset }),
	count("goaways", func(m *Metrics) int { return m.Goaways }),
	count("deadlocks_detected", func(m *Metrics) int { return m.DeadlocksDetected }),
	count("timeline_events", func(m *Metrics) int { return m.TimelineEvents }),
	count("timeline_spans", func(m *Metrics) int { return m.TimelineSpans }),
	decimal("blame_connect_ms", func(m *Metrics) float64 { return m.BlameConnectMs }),
	decimal("blame_rto_ms", func(m *Metrics) float64 { return m.BlameRTOMs }),
	decimal("blame_nagle_ms", func(m *Metrics) float64 { return m.BlameNagleMs }),
	decimal("blame_flow_ms", func(m *Metrics) float64 { return m.BlameFlowMs }),
	decimal("blame_slowstart_ms", func(m *Metrics) float64 { return m.BlameSlowStartMs }),
	decimal("blame_server_ms", func(m *Metrics) float64 { return m.BlameServerMs }),
	decimal("blame_hol_ms", func(m *Metrics) float64 { return m.BlameHOLMs }),
	decimal("blame_wire_ms", func(m *Metrics) float64 { return m.BlameWireMs }),
	decimal("critical_path_ms", func(m *Metrics) float64 { return m.CriticalPathMs }),
	text("sim_events", func(m *Metrics) string { return strconv.FormatUint(m.SimEvents, 10) }),
	count("cache_hits", func(m *Metrics) int { return m.CacheHits }),
	count("cache_misses", func(m *Metrics) int { return m.CacheMisses }),
	count("cache_revalidations", func(m *Metrics) int { return m.CacheRevalidations }),
	decimal("cache_hit_ratio", func(m *Metrics) float64 { return m.CacheHitRatio }),
	count("cache_bytes_saved", func(m *Metrics) int64 { return m.CacheBytesSaved }),
	count("upstream_requests", func(m *Metrics) int { return m.UpstreamRequests }),
	count("origin_packets", func(m *Metrics) int { return m.OriginPackets }),
	count("origin_bytes", func(m *Metrics) int64 { return m.OriginBytes }),
}

// Collector accumulates per-run metrics from concurrent workers. The
// zero value is ready to use; Add is safe for concurrent use, and
// Records returns a deterministically ordered snapshot so that sweep
// output is byte-identical at any parallelism level.
type Collector struct {
	mu   sync.Mutex
	recs []Metrics
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add appends one record.
func (c *Collector) Add(m Metrics) {
	c.mu.Lock()
	c.recs = append(c.recs, m)
	c.mu.Unlock()
}

// Len returns the number of collected records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Records returns a sorted copy of the collected records, ordered by
// (experiment, scenario, seed, run) — an order independent of worker
// scheduling.
func (c *Collector) Records() []Metrics {
	c.mu.Lock()
	out := make([]Metrics, len(c.recs))
	copy(out, c.recs)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Run < b.Run
	})
	return out
}

// distColumns returns the sorted union of Dist keys across the records
// — the optional CSV columns, in their one deterministic order.
func distColumns(recs []Metrics) []string {
	seen := map[string]bool{}
	var cols []string
	for _, m := range recs {
		for k := range m.Dist {
			if !seen[k] {
				seen[k] = true
				cols = append(cols, k)
			}
		}
	}
	sort.Strings(cols)
	return cols
}

// WriteCSV writes the collected records as CSV with a header row: the
// fixed columns in Metrics field order, then any optional distribution
// columns present in the population, sorted by name. Records lacking an
// optional key emit an empty cell, so the header — and the whole file —
// is a pure function of the collected records, independent of worker
// scheduling or map iteration order.
func (c *Collector) WriteCSV(w io.Writer) error {
	recs := c.Records()
	extras := distColumns(recs)
	cw := csv.NewWriter(w)
	row := make([]string, 0, len(csvColumns)+len(extras))
	for _, col := range csvColumns {
		row = append(row, col.name)
	}
	if err := cw.Write(append(row, extras...)); err != nil {
		return err
	}
	for i := range recs {
		m := &recs[i]
		row = row[:0]
		for _, col := range csvColumns {
			row = append(row, col.cell(m))
		}
		for _, k := range extras {
			if v, ok := m.Dist[k]; ok {
				row = append(row, strconv.FormatFloat(v, 'f', 6, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
