// Package obs is the full-stack event-timeline subsystem: a low-overhead,
// allocation-conscious event bus that every layer of the simulation
// publishes into. The TCP layer (tcpsim) reports connection state
// transitions, congestion-window changes, Nagle holds, RTO expirations,
// and retransmissions; the link layer (netem) reports serialization and
// delivery of every packet; and the HTTP layers (httpclient,
// httpserver) report request lifecycle spans — queued, request written,
// first response byte, complete — per object.
//
// On top of the bus sit three exporter views, reproducing the paper's
// own diagnostic toolchain in modern form: a Chrome trace-event /
// Perfetto JSON exporter (perfetto.go) rendering connections as tracks
// and request spans as slices, and a devtools-style waterfall
// (waterfall.go assembles the rows; rendering through the column-spec
// engine lives in internal/report to keep this package dependency-light).
// The pcap exporter, which works from the packet capture rather than
// the bus, lives in internal/trace.
//
// Every publishing method is safe to call on a nil *Bus and returns
// immediately, so instrumented hot paths cost a single nil check when
// observability is off. Calls that would allocate arguments (string
// formatting, Addr rendering) must be guarded by the caller with an
// explicit nil test.
package obs

import (
	"repro/internal/sim"
)

// Kind classifies a timeline event.
type Kind uint8

// Event kinds. The A/B/C fields of Event carry kind-specific details,
// documented per constant.
const (
	// KindConnOpen records a new connection endpoint. Note holds
	// "local→remote".
	KindConnOpen Kind = iota
	// KindConnState is a TCP state transition: A=old state ordinal,
	// B=new state ordinal, Note=new state name.
	KindConnState
	// KindCwnd is a congestion-window change: A=cwnd bytes, B=ssthresh.
	KindCwnd
	// KindNagleHold records the Nagle algorithm holding back a partial
	// segment while data is outstanding: A=pending bytes.
	KindNagleHold
	// KindRTOFire is a retransmission-timer expiration: A=RTO
	// nanoseconds (before backoff doubling), B=consecutive retries.
	KindRTOFire
	// KindRetransmit is a segment sent more than once: A=sequence
	// number, B=payload bytes.
	KindRetransmit
	// KindWireSend is a packet accepted by a link. Time is the instant
	// serialization begins (after FIFO queueing); A=wire bytes,
	// B=serialization-end nanoseconds, C=delivery nanoseconds.
	// Note=link name.
	KindWireSend
	// KindWireDrop is a packet discarded by the link loss model:
	// A=wire bytes, Note=link name.
	KindWireDrop
	// KindSpanQueued opens a request span: the client decided to fetch
	// an object. A=1 when the request is a retry after a connection
	// failure.
	KindSpanQueued
	// KindSpanWritten records the request bytes being handed to TCP.
	KindSpanWritten
	// KindSpanFirstByte records the first response byte arriving.
	KindSpanFirstByte
	// KindSpanDone closes a request span: A=status code, B=body bytes.
	KindSpanDone
	// KindServerRecv marks the server parsing a request: Note=target.
	KindServerRecv
	// KindServerSend marks the server queueing a response: A=status
	// code, B=body bytes, Note=target.
	KindServerSend
	// KindCacheHit marks an intermediary serving a request from its
	// cache without touching the origin: A=body bytes served,
	// Note=target.
	KindCacheHit
	// KindCacheMiss marks an intermediary forwarding a request upstream
	// because its cache had no entry: Note=target.
	KindCacheMiss
	// KindCacheReval marks an intermediary revalidating a stale cache
	// entry with the origin: A=1 when the origin confirmed the entry
	// (304), 0 when it returned a new entity, Note=target.
	KindCacheReval
	// KindFault marks a scripted fault firing (server truncation,
	// abort, stall): A=the faulted response's server-wide ordinal,
	// Note=the fault kind.
	KindFault
	// KindClientTimeout marks the client's response-progress watchdog
	// expiring on a connection: A=timeout nanoseconds.
	KindClientTimeout
	// KindRetryBackoff marks the client entering its redial backoff
	// window: A=backoff nanoseconds, B=consecutive failures.
	KindRetryBackoff
	// KindFallback marks the client degrading its protocol after
	// repeated connection failures: A=new fallback level, Note=the
	// level's name.
	KindFallback
	// KindPushPromise opens a server-pushed request span on the client:
	// the server promised to push the object without being asked.
	// Note=path.
	KindPushPromise
	// KindMuxFrame records a multiplexed frame being sent: A=stream ID,
	// B=payload bytes, Note=frame-type name.
	KindMuxFrame
	// KindFlowStall records a mux sender exhausting a flow-control
	// window: A=the blocked stream's ID, Note="conn" or "stream" for
	// which window ran dry.
	KindFlowStall
	// KindStreamReset records a mux stream torn down by RST_STREAM for
	// error recovery (peer reset, or the client watchdog expiring one
	// wedged stream): A=stream ID, Note=the error code's name or
	// "watchdog".
	KindStreamReset
	// KindGoaway records a GOAWAY session-close announcement on a mux
	// connection, sent or received: A=last processed peer stream ID,
	// Note=the error code's name.
	KindGoaway
	// KindDeadlock records the client watchdog proving a flow-control
	// deadlock on a silent mux session: A=the starved stream's ID,
	// Note=which window wedged ("peer-starved", "conn-window",
	// "stream-window").
	KindDeadlock
	// KindSendStall records a TCP sender with pending data entering a
	// blocked state: A=pending bytes, Note=the cause ("nagle" for a
	// Nagle hold, "cwnd" for congestion-window exhaustion, "rwnd" for
	// the peer's receive window). Edge-triggered: one event per stall,
	// closed by the matching KindSendResume.
	KindSendStall
	// KindSendResume records a stalled TCP sender transmitting again,
	// closing the open KindSendStall interval on the connection.
	KindSendResume
)

var kindNames = [...]string{
	"conn-open", "conn-state", "cwnd", "nagle-hold", "rto-fire",
	"retransmit", "wire-send", "wire-drop", "span-queued",
	"span-written", "span-first-byte", "span-done", "server-recv",
	"server-send", "cache-hit", "cache-miss", "cache-reval",
	"fault", "client-timeout", "retry-backoff", "fallback",
	"push-promise", "mux-frame", "flow-stall", "stream-reset",
	"goaway", "deadlock", "send-stall", "send-resume",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ConnID identifies a connection endpoint on the bus (1-based; 0 = none).
type ConnID int32

// SpanID identifies a request span on the bus (1-based; 0 = none).
type SpanID int32

// Event is one timeline record. Events are stored flat (no per-event
// allocation beyond the backing slice); A, B, and C carry kind-specific
// numeric details, Note an optional label.
type Event struct {
	Time    sim.Time
	Kind    Kind
	Conn    ConnID
	Span    SpanID
	A, B, C int64
	Note    string
}

// ConnInfo is the bus's record of one connection endpoint.
type ConnInfo struct {
	ID            ConnID
	Local, Remote string
	Opened        sim.Time
}

// NoTime marks a span timestamp that was never recorded.
const NoTime = sim.Time(-1)

// SpanInfo is the assembled lifecycle of one request span.
type SpanInfo struct {
	ID           SpanID
	Method, Path string
	// Conn is the connection the request was written on (0 until
	// written).
	Conn ConnID
	// Retried marks a request re-issued after a connection failure.
	Retried bool
	// Via names the intermediary that issued the request ("" for spans
	// originated by the client itself). A proxy's upstream fetches appear
	// as their own spans with Via set, so a waterfall shows the proxy hop
	// separately from the client-side request it serves.
	Via string
	// Pushed marks a span the server initiated via PUSH_PROMISE rather
	// than the client requesting it. A pushed span that is never Done
	// was promised but unused — wasted push bytes.
	Pushed bool
	// Queued, Written, FirstByte, and Done are the lifecycle instants;
	// NoTime where the event never happened (e.g. a span abandoned by a
	// connection reset is never Done).
	Queued, Written, FirstByte, Done sim.Time
	// Status and Bytes are filled at Done.
	Status int
	Bytes  int64
}

// Bus accumulates timeline events on a simulator clock. The zero value
// is not usable; call New. All methods are safe on a nil receiver.
type Bus struct {
	sim    *sim.Simulator
	events []Event
	conns  []ConnInfo
	spans  []SpanInfo
}

// New returns an empty bus stamping events with s's clock.
func New(s *sim.Simulator) *Bus {
	return &Bus{
		sim:    s,
		events: make([]Event, 0, 1024),
	}
}

// Len returns the number of recorded events.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	return len(b.events)
}

// Events returns the recorded events. Wire-send events are stamped at
// serialization start, which can be later than subsequently published
// events' instants; all other events appear in publication order.
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	return b.events
}

// Conns returns the connection records in open order.
func (b *Bus) Conns() []ConnInfo {
	if b == nil {
		return nil
	}
	return b.conns
}

// Spans returns the request-span records in queue order.
func (b *Bus) Spans() []SpanInfo {
	if b == nil {
		return nil
	}
	return b.spans
}

// record appends a fully-stamped event. Both publication paths — add
// (stamped now) and WireSend (stamped at serialization start) — funnel
// through here, so the bus retains every event of the run.
func (b *Bus) record(ev Event) {
	b.events = append(b.events, ev)
}

func (b *Bus) add(ev Event) {
	ev.Time = b.sim.Now()
	b.record(ev)
}

// --- connection publishers ---

// ConnOpen registers a connection endpoint and returns its ID.
func (b *Bus) ConnOpen(local, remote string) ConnID {
	if b == nil {
		return 0
	}
	id := ConnID(len(b.conns) + 1)
	b.conns = append(b.conns, ConnInfo{ID: id, Local: local, Remote: remote, Opened: b.sim.Now()})
	b.add(Event{Kind: KindConnOpen, Conn: id, Note: local + "→" + remote})
	return id
}

// ConnState records a TCP state transition. name is the new state's
// display name (callers pass a constant, so no allocation).
func (b *Bus) ConnState(id ConnID, old, new int, name string) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindConnState, Conn: id, A: int64(old), B: int64(new), Note: name})
}

// Cwnd records a congestion-window change.
func (b *Bus) Cwnd(id ConnID, cwnd, ssthresh int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindCwnd, Conn: id, A: int64(cwnd), B: int64(ssthresh)})
}

// NagleHold records the Nagle algorithm holding back pending bytes.
func (b *Bus) NagleHold(id ConnID, pending int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindNagleHold, Conn: id, A: int64(pending)})
}

// RTOFire records a retransmission-timer expiration.
func (b *Bus) RTOFire(id ConnID, rto sim.Duration, retries int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindRTOFire, Conn: id, A: int64(rto), B: int64(retries)})
}

// SendStall records a TCP sender with pending data going idle. cause
// names the blocking condition ("nagle", "cwnd", or "rwnd"); callers
// pass a constant, so no allocation.
func (b *Bus) SendStall(id ConnID, cause string, pending int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindSendStall, Conn: id, A: int64(pending), Note: cause})
}

// SendResume records a stalled sender transmitting again.
func (b *Bus) SendResume(id ConnID) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindSendResume, Conn: id})
}

// Retransmit records a segment sent more than once.
func (b *Bus) Retransmit(id ConnID, seq uint32, payload int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindRetransmit, Conn: id, A: int64(seq), B: int64(payload)})
}

// --- wire publishers ---

// WireSend records a packet accepted by a link: serialization starts at
// start (after FIFO queueing), ends at done, and the last bit reaches
// the far end at arrive. The event is stamped at start, not at the
// publication instant.
func (b *Bus) WireSend(link string, wireBytes int, start, done, arrive sim.Time) {
	if b == nil {
		return
	}
	b.record(Event{
		Time: start, Kind: KindWireSend, Note: link,
		A: int64(wireBytes), B: int64(done), C: int64(arrive),
	})
}

// WireDrop records a packet discarded by the link loss model.
func (b *Bus) WireDrop(link string, wireBytes int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindWireDrop, Note: link, A: int64(wireBytes)})
}

// --- request-span publishers ---

// SpanQueued opens a request span at the current instant.
func (b *Bus) SpanQueued(method, path string, retried bool) SpanID {
	return b.SpanQueuedVia(method, path, retried, "")
}

// SpanQueuedVia opens a request span originated by the named
// intermediary (e.g. a proxy's upstream fetch). via="" is a client span.
func (b *Bus) SpanQueuedVia(method, path string, retried bool, via string) SpanID {
	if b == nil {
		return 0
	}
	id := SpanID(len(b.spans) + 1)
	now := b.sim.Now()
	b.spans = append(b.spans, SpanInfo{
		ID: id, Method: method, Path: path, Retried: retried, Via: via,
		Queued: now, Written: NoTime, FirstByte: NoTime, Done: NoTime,
	})
	var retry int64
	if retried {
		retry = 1
	}
	b.add(Event{Kind: KindSpanQueued, Span: id, A: retry, Note: path})
	return id
}

// SpanWritten records the span's request bytes being handed to TCP on
// conn. Only the first call per span is recorded.
func (b *Bus) SpanWritten(id SpanID, conn ConnID) {
	if b == nil || id <= 0 || int(id) > len(b.spans) {
		return
	}
	sp := &b.spans[id-1]
	if sp.Written != NoTime {
		return
	}
	sp.Written = b.sim.Now()
	sp.Conn = conn
	b.add(Event{Kind: KindSpanWritten, Span: id, Conn: conn})
}

// SpanFirstByte records the first response byte for the span. Idempotent:
// only the first call is recorded.
func (b *Bus) SpanFirstByte(id SpanID) {
	if b == nil || id <= 0 || int(id) > len(b.spans) {
		return
	}
	sp := &b.spans[id-1]
	if sp.FirstByte != NoTime {
		return
	}
	sp.FirstByte = b.sim.Now()
	b.add(Event{Kind: KindSpanFirstByte, Span: id, Conn: sp.Conn})
}

// SpanDone closes the span with the response status and body size. A
// span with no recorded first byte gets one at the same instant (the
// whole response arrived in a single delivery).
func (b *Bus) SpanDone(id SpanID, status int, bytes int64) {
	if b == nil || id <= 0 || int(id) > len(b.spans) {
		return
	}
	b.SpanFirstByte(id)
	sp := &b.spans[id-1]
	if sp.Done != NoTime {
		return
	}
	sp.Done = b.sim.Now()
	sp.Status = status
	sp.Bytes = bytes
	b.add(Event{Kind: KindSpanDone, Span: id, Conn: sp.Conn, A: int64(status), B: bytes})
}

// --- server publishers ---

// ServerRecv marks the server parsing a request for target on conn.
func (b *Bus) ServerRecv(conn ConnID, target string) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindServerRecv, Conn: conn, Note: target})
}

// ServerSend marks the server queueing a response for target on conn.
func (b *Bus) ServerSend(conn ConnID, target string, status int, bytes int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindServerSend, Conn: conn, Note: target, A: int64(status), B: int64(bytes)})
}

// --- cache publishers ---

// CacheHit marks an intermediary serving target from cache on conn.
func (b *Bus) CacheHit(conn ConnID, target string, bytes int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindCacheHit, Conn: conn, Note: target, A: int64(bytes)})
}

// CacheMiss marks an intermediary forwarding target upstream.
func (b *Bus) CacheMiss(conn ConnID, target string) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindCacheMiss, Conn: conn, Note: target})
}

// CacheReval marks an intermediary revalidating a stale entry for
// target; confirmed reports whether the origin answered 304.
func (b *Bus) CacheReval(conn ConnID, target string, confirmed bool) {
	if b == nil {
		return
	}
	var a int64
	if confirmed {
		a = 1
	}
	b.add(Event{Kind: KindCacheReval, Conn: conn, Note: target, A: a})
}

// --- fault and recovery publishers ---

// Fault marks a scripted fault firing on conn. kind is the fault's
// name (callers pass a constant), seq the faulted response's ordinal.
func (b *Bus) Fault(conn ConnID, kind string, seq int64) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindFault, Conn: conn, Note: kind, A: seq})
}

// ClientTimeout marks the client's response-progress watchdog expiring
// on conn after timeout nanoseconds without progress.
func (b *Bus) ClientTimeout(conn ConnID, timeout sim.Duration) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindClientTimeout, Conn: conn, A: int64(timeout)})
}

// RetryBackoff marks the client delaying its redial by backoff after
// its n-th consecutive connection failure.
func (b *Bus) RetryBackoff(backoff sim.Duration, failures int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindRetryBackoff, A: int64(backoff), B: int64(failures)})
}

// Fallback marks the client degrading its protocol to the named level.
func (b *Bus) Fallback(level int, name string) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindFallback, A: int64(level), Note: name})
}

// --- multiplexing publishers ---

// SpanPushed opens a server-initiated (pushed) request span at the
// current instant: the promise arrived, the client did not ask. The
// span is Written at the same instant — the "request" is the promise
// itself.
func (b *Bus) SpanPushed(method, path string, conn ConnID) SpanID {
	if b == nil {
		return 0
	}
	id := SpanID(len(b.spans) + 1)
	now := b.sim.Now()
	b.spans = append(b.spans, SpanInfo{
		ID: id, Method: method, Path: path, Pushed: true, Conn: conn,
		Queued: now, Written: now, FirstByte: NoTime, Done: NoTime,
	})
	b.add(Event{Kind: KindPushPromise, Span: id, Conn: conn, Note: path})
	return id
}

// MuxFrame records a multiplexed frame sent on conn. frameType is the
// frame-type name (callers pass the FrameType's constant String).
func (b *Bus) MuxFrame(conn ConnID, frameType string, stream uint32, payloadLen int) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindMuxFrame, Conn: conn, A: int64(stream), B: int64(payloadLen), Note: frameType})
}

// FlowStall records a mux sender on conn exhausting a flow-control
// window; connLevel selects the connection window over stream's.
func (b *Bus) FlowStall(conn ConnID, stream uint32, connLevel bool) {
	if b == nil {
		return
	}
	note := "stream"
	if connLevel {
		note = "conn"
	}
	b.add(Event{Kind: KindFlowStall, Conn: conn, A: int64(stream), Note: note})
}

// StreamReset records a mux stream on conn torn down by RST_STREAM
// for error recovery. why is the error code's name, or "watchdog" for
// a client-initiated teardown (callers pass constants or the
// ErrCode's constant String).
func (b *Bus) StreamReset(conn ConnID, stream uint32, why string) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindStreamReset, Conn: conn, A: int64(stream), Note: why})
}

// Goaway records a GOAWAY announcement on conn. last is the highest
// peer-initiated stream the sender acted on; code the error code's
// name.
func (b *Bus) Goaway(conn ConnID, last uint32, code string) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindGoaway, Conn: conn, A: int64(last), Note: code})
}

// Deadlock records the watchdog proving a flow-control deadlock on
// conn, starving stream; which names the wedged window.
func (b *Bus) Deadlock(conn ConnID, stream uint32, which string) {
	if b == nil {
		return
	}
	b.add(Event{Kind: KindDeadlock, Conn: conn, A: int64(stream), Note: which})
}
