// Package httpclient implements the simulated web client: the libwww
// robot of the paper, in its four measured configurations (HTTP/1.0 with
// parallel connections, HTTP/1.1 persistent, HTTP/1.1 pipelined, and
// pipelined with deflate transport compression), header/connection
// profiles approximating the product browsers of Tables 10 and 11, and
// three later designs: framed multiplexing (internal/mux), with and
// without server push, and Http-Burst aggregation.
//
// Every HTTP/1.x mode sends through one output buffer per connection,
// the implementation strategy the paper converged on: a pipelining
// connection buffers requests in a 1024-byte application buffer,
// flushed explicitly after the first (HTML) request, when the buffer
// fills, when the flush timer expires, or when the document parse
// completes; a connection that does not pipeline is the same buffer
// flushed after every request. TCP_NODELAY is set, and HTML is
// parsed incrementally as response segments arrive so new request
// batches can be issued while the page is still in flight. A burst is a
// plain HTTP/1.1 exchange whose one response carries every object.
//
// Under the recovery policy (Config.Recovery) the robot degrades one rung at
// a time after repeated failures: mux → pipelined → serial → HTTP/1.0.
package httpclient

import (
	"time"

	"repro/internal/obs"
)

// Mode is a measured client configuration.
type Mode int

// Client modes.
const (
	// ModeHTTP10: HTTP/1.0, one connection per request, up to 4 in
	// parallel (Netscape's default, as used by the paper's robot).
	ModeHTTP10 Mode = iota
	// ModeHTTP11Serial: HTTP/1.1 persistent connection, requests
	// serialized, no pipelining.
	ModeHTTP11Serial
	// ModeHTTP11Pipelined: persistent connection with buffered
	// pipelining.
	ModeHTTP11Pipelined
	// ModeHTTP11PipelinedDeflate: pipelining plus Accept-Encoding:
	// deflate for the HTML.
	ModeHTTP11PipelinedDeflate
	// ModeNetscape: Netscape 4.0b5 profile — HTTP/1.0 + Keep-Alive,
	// 4 connections, verbose headers.
	ModeNetscape
	// ModeMSIE: Internet Explorer 4.0b1 profile — HTTP/1.1, 4 parallel
	// persistent connections, no pipelining, verbose headers.
	ModeMSIE
	// ModeMux: HTTP/2-style framed multiplexing over one connection —
	// concurrent streams, header compression, flow control (the
	// internal/mux layer).
	ModeMux
	// ModeMuxPush: ModeMux plus server push: the server promises and
	// pushes the page's inline objects unasked; the client cancels
	// promises it can satisfy from cache, and pushed-but-unused bytes
	// are accounted as waste.
	ModeMuxPush
	// ModeBurst: Http-Burst-style aggregation — one GET, one response
	// carrying the page and every inline object as records.
	ModeBurst
)

// String names the mode as in the paper's tables.
func (m Mode) String() string {
	switch m {
	case ModeHTTP10:
		return "HTTP/1.0"
	case ModeHTTP11Serial:
		return "HTTP/1.1"
	case ModeHTTP11Pipelined:
		return "HTTP/1.1 Pipelined"
	case ModeHTTP11PipelinedDeflate:
		return "HTTP/1.1 Pipelined w. compression"
	case ModeNetscape:
		return "Netscape Navigator"
	case ModeMSIE:
		return "Internet Explorer"
	case ModeMux:
		return "HTTP/2 Mux"
	case ModeMuxPush:
		return "HTTP/2 Mux + Push"
	case ModeBurst:
		return "HTTP/1.1 Burst"
	}
	return "unknown"
}

// Framed reports whether the mode fetches over the framed multiplexed
// protocol (internal/mux) rather than HTTP/1.x.
func (m Mode) Framed() bool { return m == ModeMux || m == ModeMuxPush }

// Workload selects the paper's two test workloads.
type Workload int

// Workloads.
const (
	// FirstTime is the empty-cache retrieval: 43 GETs.
	FirstTime Workload = iota
	// Revalidate is the warm-cache visit: 43 cache validations.
	Revalidate
)

// String names the workload as in the tables.
func (w Workload) String() string {
	if w == Revalidate {
		return "Cache Validation"
	}
	return "First Time Retrieval"
}

// Config tunes the robot. Mode presets fill the zero fields; see
// (Mode).Config.
type Config struct {
	// Mode decides the transport: a framed mode (Mode.Framed) fetches
	// over one multiplexed connection (internal/mux), ModeMuxPush
	// advertising SETTINGS_ENABLE_PUSH so the server pushes inline
	// objects; ModeBurst asks for the page as a single aggregated
	// response (Accept-Burst); every other mode speaks HTTP/1.x as the
	// fields below set it up. The recovery ladder's first rung rewrites
	// a framed Mode to ModeHTTP11Pipelined.
	Mode Mode

	Proto      string // HTTP/1.0 or HTTP/1.1
	MaxConns   int    // parallel connections
	KeepAlive  bool   // reuse connections across requests
	Pipelining bool
	// AcceptDeflate advertises and decodes deflate content coding.
	AcceptDeflate bool
	Style         Style

	// BufferSize is the pipelining output buffer (paper: 1024).
	BufferSize int
	// MuxFIFO switches the mux session's DATA pump to strict
	// first-come-first-served stream order instead of (priority, id)
	// scheduling — the stream-priority ablation.
	MuxFIFO bool

	// FlushTimeout bounds how long requests sit in the buffer (paper:
	// 1s initially, 50ms in the tuned configuration).
	FlushTimeout time.Duration
	// ExplicitFirstFlush forces a flush after the first (HTML) request,
	// the application-knowledge optimization the paper added.
	ExplicitFirstFlush bool
	// NoDelay sets TCP_NODELAY (required for buffered pipelining).
	NoDelay bool

	// PerRequestCPU is client processing per response (parsing, cache
	// bookkeeping).
	PerRequestCPU time.Duration

	// RevalImagesViaHEAD validates images with HEAD instead of
	// conditional GET (the old HTTP/1.0 robot's behaviour).
	RevalImagesViaHEAD bool
	// RevalidateHTMLUnconditionally re-fetches the page body on the
	// revalidation workload (no client cache for the page, or broken
	// validators — the IE-against-Jigsaw behaviour of Table 10).
	RevalidateHTMLUnconditionally bool
	// PageOnly fetches just the page, ignoring inline resources (the
	// paper's single-GET modem-compression experiment).
	PageOnly bool
	// RevalRangeProbe, when positive, turns image revalidations into the
	// paper's "poor man's multiplexing" idiom: a conditional GET carrying
	// Range: bytes=0-(N-1), so an unchanged entity costs a 304 and a
	// changed one returns only its first N bytes (its metadata) before
	// the client decides to fetch the rest. Large changed objects then
	// cannot monopolize the pipelined connection.
	RevalRangeProbe int

	// Recovery arms the fault-recovery machinery under the faults
	// package's policy: a progress watchdog per connection
	// (faults.RequestTimeout of silence with requests outstanding
	// aborts the connection), capped exponential backoff before
	// re-dialing after consecutive failures, a retry budget,
	// idempotency-aware re-issue (only GET/HEAD are requeued),
	// and graceful protocol degradation (mux → pipelined → serial →
	// HTTP/1.0). On a mux session the watchdog additionally runs
	// per-stream: an individually silent stream is torn down with
	// RST_STREAM and re-issued on the same session, and total silence
	// is classified (flow-control deadlock vs generic stall) before the
	// session is aborted.
	// Off preserves the legacy behaviour exactly: no extra timers fire
	// and no RNG draws occur, so fault-free runs are byte-identical.
	Recovery bool

	// InitialCwndSegments overrides the TCP slow-start initial window
	// (0 keeps tcpsim's default of 2).
	InitialCwndSegments int

	// Obs, if non-nil, receives request lifecycle spans (queued →
	// written → first byte → done) for every work item.
	Obs *obs.Bus
}

// Config returns the preset for the mode.
func (m Mode) Config() Config {
	c := Config{
		Mode:          m,
		BufferSize:    1024,
		FlushTimeout:  50 * time.Millisecond,
		PerRequestCPU: 5 * time.Millisecond,
	}
	switch m {
	case ModeHTTP10:
		c.Proto = "HTTP/1.0"
		c.MaxConns = 4
		c.Style = StyleRobot10
		c.RevalImagesViaHEAD = true
		c.RevalidateHTMLUnconditionally = true // no persistent cache
	case ModeHTTP11Serial:
		c.Proto = "HTTP/1.1"
		c.MaxConns = 1
		c.KeepAlive = true
		c.Style = StyleRobot11
	case ModeHTTP11Pipelined:
		c.Proto = "HTTP/1.1"
		c.MaxConns = 1
		c.KeepAlive = true
		c.Pipelining = true
		c.ExplicitFirstFlush = true
		c.NoDelay = true
		c.Style = StyleRobot11
	case ModeHTTP11PipelinedDeflate:
		c.Proto = "HTTP/1.1"
		c.MaxConns = 1
		c.KeepAlive = true
		c.Pipelining = true
		c.ExplicitFirstFlush = true
		c.NoDelay = true
		c.AcceptDeflate = true
		c.Style = StyleRobot11
	case ModeNetscape:
		c.Proto = "HTTP/1.0"
		c.MaxConns = 4
		c.KeepAlive = true
		c.Style = StyleNetscape
	case ModeMSIE:
		c.Proto = "HTTP/1.1"
		c.MaxConns = 4
		c.KeepAlive = true
		c.Style = StyleMSIE
	case ModeMux, ModeMuxPush:
		c.Proto = "HTTP/1.1" // synthesized responses carry this proto
		c.MaxConns = 1
		c.KeepAlive = true
		c.NoDelay = true
		c.Style = StyleRobot11
	case ModeBurst:
		c.Proto = "HTTP/1.1"
		c.MaxConns = 1
		c.KeepAlive = true
		c.NoDelay = true
		c.Style = StyleRobot11
	}
	return c
}

// Result summarizes one page fetch.
type Result struct {
	Done    bool
	Aborted bool

	Requests     int
	Responses200 int
	Responses304 int

	// PayloadBytes counts response body bytes as received (compressed
	// bodies count compressed).
	PayloadBytes int64

	SocketsUsed          int
	MaxSimultaneousConns int

	// Errors counts connection-level failures (resets, truncations).
	Errors int
	// Retried counts requests re-sent after a connection failure.
	Retried int

	// Timeouts counts progress-watchdog expiries (Recovery policy):
	// connections aborted because no bytes arrived for RequestTimeout
	// with requests outstanding.
	Timeouts int
	// RequestsRecovered counts requests that failed at least once and
	// ultimately completed; RequestsFailed counts requests dropped
	// permanently (retry budget exhausted or non-idempotent method) and
	// responses whose deflate coding does not inflate or whose burst
	// payload does not decode.
	RequestsRecovered int
	RequestsFailed    int
	// WastedBytes counts response bytes that were delivered and then
	// discarded: partial responses thrown away when their connection
	// failed and the request was re-issued.
	WastedBytes int64
	// RecoverySeconds sums the intervals from each failure streak's
	// first failure to the first retried response completing.
	RecoverySeconds float64
	// Fallbacks counts protocol degradations (mux → pipelined → serial
	// → HTTP/1.0) taken under a Recovery policy after connection
	// failures.
	Fallbacks int

	// Responses206 counts partial-content responses (range probes and
	// remainder fetches).
	Responses206 int

	// MetadataSeconds is the virtual time at which every object had
	// delivered its first response (a 304, a probe's 206, or a full
	// response) — the layout-critical quantity range probing improves.
	MetadataSeconds float64
	// CompleteSeconds is the virtual time the whole fetch finished.
	CompleteSeconds float64

	// DeflateResponses counts responses that arrived deflate-coded.
	DeflateResponses int
	// InflatedBytes is the decoded size of those bodies.
	InflatedBytes int64

	// Multiplexed-mode accounting (zero outside the framed modes).
	// StreamsOpened counts client-initiated streams; PushPromised the
	// promises the server made; PushUsed the promises this fetch
	// claimed in place of its own request.
	StreamsOpened int
	PushPromised  int
	PushUsed      int
	// PushWastedBytes counts pushed body bytes the client never wanted:
	// DATA arriving on cancelled promises plus completed pushes that
	// were never claimed (Meireles et al.'s wasted-push measure).
	PushWastedBytes int64
	// HeaderBytesSaved is the client-observed HPACK-style compression
	// win: Σ (plain HTTP/1.x header size − encoded block size) over
	// both directions of the mux connection.
	HeaderBytesSaved int64
	// FlowControlStalls counts this side's transitions into an
	// exhausted stream or connection flow-control window.
	FlowControlStalls int
	// StreamsReset counts mux streams torn down by RST_STREAM for
	// error recovery: peer resets of request or push streams plus
	// watchdog-initiated per-stream teardowns. Cache-refusal push
	// cancellations (normal behaviour) are not counted.
	StreamsReset int
	// Goaways counts GOAWAY session-close announcements on the mux
	// connection, received from the server or sent by this client's
	// strict frame validator.
	Goaways int
	// DeadlocksDetected counts watchdog expiries the session's flow
	// detectors classified as a provable flow-control deadlock — an
	// exhausted window that would never refill — rather than a generic
	// stall. With recovery armed this is usually zero: resets and
	// redials clear wedged windows before they become terminal.
	DeadlocksDetected int
}
