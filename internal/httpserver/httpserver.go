// Package httpserver implements the simulated HTTP/1.0+1.1 origin server
// serving the Microscape site, with two behavioural profiles modelled on
// the paper's servers:
//
//   - Jigsaw 1.06: verbose response headers, higher per-request CPU cost
//     (it ran interpreted Java);
//   - Apache 1.2b10: lean headers, lower CPU cost.
//
// The server implements the behaviours the paper established as necessary
// for HTTP/1.1 performance: response buffering that flushes when the
// buffer fills, when no further pipelined requests are pending, or before
// going idle; graceful independent half-close (with a deliberate
// naive-close mode to reproduce the pipeline-reset failure); an optional
// requests-per-connection limit (Apache 1.2b2's 5); conditional GET with
// entity tags and date validators; HEAD; byte ranges with If-Range; and
// precomputed deflate content-coding for the HTML page.
//
// A connection that opens with the mux preface is served by the same
// loop in framed form (muxserver.go): requests arrive as streams, and
// the server may push a page's inline objects.
package httpserver

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/httpmsg"
	"repro/internal/mux"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// Profile selects a server personality.
type Profile int

// Server profiles.
const (
	ProfileJigsaw Profile = iota
	ProfileApache
)

// String names the profile as in the paper's tables.
func (p Profile) String() string {
	if p == ProfileApache {
		return "Apache"
	}
	return "Jigsaw"
}

// Config tunes server behaviour. Zero values select the profile defaults
// (see applyProfile).
type Config struct {
	Profile Profile
	// MaxRequestsPerConn closes the connection after N responses
	// (0 = unlimited). Apache 1.2b2 shipped with 5. An HTTP/1.x
	// connection announces the close with Connection: close, a framed
	// one with GOAWAY; pushed responses do not count.
	MaxRequestsPerConn int
	// NaiveClose makes the per-connection close tear down both TCP
	// halves at once, reproducing the paper's reset scenario. The default
	// is the independent half-close the paper prescribes.
	NaiveClose bool
	// PerRequestCPU and PerConnCPU are processing costs charged to the
	// host's single CPU.
	PerRequestCPU, PerConnCPU time.Duration
	// MuxFIFO switches accepted mux sessions' DATA pumps to strict
	// first-come-first-served stream order instead of (priority, id)
	// scheduling — the stream-priority ablation. Pushed responses then
	// no longer yield to requested page data.
	MuxFIFO bool
	// NoDelay disables Nagle on accepted connections (the paper's tuned
	// configuration).
	NoDelay bool
	// InitialCwndSegments overrides the TCP slow-start initial window
	// of accepted connections (0 keeps tcpsim's default of 2).
	InitialCwndSegments int
	// Obs, if non-nil, receives request-parsed and response-queued
	// events for every request the server handles.
	Obs *obs.Bus
	// Fault scripts one deterministic server-side failure; the zero
	// value injects nothing. On a framed connection the HTTP/1.x kinds
	// map onto framing-level misbehaviour: early close becomes
	// GOAWAY+close, truncation ends a stream early and closes, abort
	// resets the transport, and stall wedges one stream (headers sent,
	// body never) while the rest of the session keeps serving. The mux
	// kinds are inert on HTTP/1.x connections.
	Fault faults.ServerFault
}

func (c Config) applyProfile() Config {
	switch c.Profile {
	case ProfileApache:
		if c.PerRequestCPU == 0 {
			c.PerRequestCPU = 5 * time.Millisecond
		}
		if c.PerConnCPU == 0 {
			c.PerConnCPU = 5 * time.Millisecond
		}
	default:
		if c.PerRequestCPU == 0 {
			c.PerRequestCPU = 10 * time.Millisecond
		}
		if c.PerConnCPU == 0 {
			c.PerConnCPU = 9 * time.Millisecond
		}
	}
	// The early-close fault is the per-connection request limit with
	// the naive close of the paper's reset scenario.
	if c.Fault.Kind == faults.EarlyClose {
		c.MaxRequestsPerConn = c.Fault.At
		c.NaiveClose = true
	}
	return c
}

// Stats counts server-side activity.
type Stats struct {
	Connections    int
	Requests       int
	NotModified    int
	EarlyCloses    int
	ProtocolErrors int
	// FlowControlStalls counts a framed connection's transitions into
	// an exhausted send window (stream or connection) while pumping
	// response DATA.
	FlowControlStalls int
	// FaultsInjected counts scripted faults that actually fired:
	// one-shot response faults and closes forced by the early-close
	// fault.
	FaultsInjected int
}

// serverDate is the fixed Date header both profiles stamp on every
// response (the simulation's wall clock never advances past one page
// view, as in the paper's isolated testbed).
const serverDate = "Mon, 07 Jul 1997 10:00:00 GMT"

// Server serves one site on one host and port.
type Server struct {
	cfg   Config
	site  *webgen.Site
	cpu   *sim.CPU
	stats Stats
	// faultSeq numbers HTTP/1.x responses server-wide (1-based) so
	// one-shot scripted faults fire exactly once even across retried
	// connections. muxSeq and pushSeq are the framed equivalents:
	// muxSeq numbers client-requested framed responses, pushSeq
	// numbers promised pushes. Each framing keeps its own so that the
	// two cannot perturb each other's one-shot ordinals.
	faultSeq, muxSeq, pushSeq int
	// resp is filled for each response in turn: the CPU computes one
	// response at a time and each is marshalled at once, so one serves
	// every connection.
	resp httpmsg.Response
}

// New creates a server and begins listening on host:port.
func New(s *sim.Simulator, host *tcpsim.Host, port int, site *webgen.Site, cfg Config, rng *sim.Rand) *Server {
	srv := &Server{
		cfg:  cfg.applyProfile(),
		site: site,
		cpu:  sim.NewCPU(s, rng),
	}
	tcpOpts := tcpsim.Options{NoDelay: srv.cfg.NoDelay, InitialCwndSegments: srv.cfg.InitialCwndSegments}
	host.Listen(port, tcpOpts, func(c *tcpsim.Conn) tcpsim.Handler {
		return newServerConn(srv, c)
	})
	return srv
}

// Stats returns a copy of the server counters.
func (s *Server) Stats() Stats { return s.stats }

// CPUTime returns the total simulated CPU work the server has consumed.
func (s *Server) CPUTime() sim.Duration { return s.cpu.TotalWork() }

// job is one response the connection owes: an HTTP/1.x request's, a
// framed stream's, or a push the server volunteered on one.
type job struct {
	req *httpmsg.Request
	st  *mux.Stream // the framed stream, nil on HTTP/1.x
}

// pushed reports whether the server volunteered the job: the streams a
// server opens, its pushes, have even IDs.
func (j job) pushed() bool { return j.st != nil && j.st.ID%2 == 0 }

// serverConn is the per-connection state machine, and its handler. It
// serves its jobs in order, one at a time through the host CPU, buffers
// their output, and releases it when the connection is idle, whether
// the connection speaks HTTP/1.x or mux framing.
type serverConn struct {
	srv    *Server
	conn   *tcpsim.Conn
	parser httpmsg.RequestParser
	// sess is the framed session, nil while the connection speaks
	// HTTP/1.x.
	sess *mux.Session

	// pending holds the jobs received and not yet served. While busy,
	// its head is the job the CPU is working on: processNext serves one
	// job at a time.
	pending sim.Queue[job]
	served  int // responses counted against MaxRequestsPerConn

	busy, closing bool
	// stalled wedges the connection after a scripted stall fault: no
	// further bytes are ever sent and no close is initiated.
	stalled bool

	// Mux sniffing: a connection whose first bytes are the mux
	// connection preface is handed to a framed session instead of the
	// HTTP/1.x parser. preBuf holds bytes while the preface is still
	// ambiguous (it can arrive split).
	muxDecided bool
	preBuf     []byte
}

func newServerConn(srv *Server, c *tcpsim.Conn) tcpsim.Handler {
	srv.stats.Connections++
	return &serverConn{srv: srv, conn: c}
}

// OnConnect implements tcpsim.Handler: it charges the per-connection
// setup cost (accept, fork/thread, logging).
func (sc *serverConn) OnConnect(c *tcpsim.Conn) {
	sc.srv.cpu.Run(sc.srv.cfg.PerConnCPU, sim.Nop, nil)
}

// OnError implements tcpsim.Handler.
func (sc *serverConn) OnError(c *tcpsim.Conn, err error) {}

// OnClose implements tcpsim.Handler.
func (sc *serverConn) OnClose(c *tcpsim.Conn) {}

// OnData implements tcpsim.Handler.
func (sc *serverConn) OnData(c *tcpsim.Conn, data []byte) {
	if sc.closing || sc.stalled {
		return
	}
	if !sc.muxDecided {
		if data = sc.sniffPreface(data); data == nil {
			return
		}
	}
	if sc.sess != nil {
		sc.sess.Feed(data)
	} else if !sc.parse(data) {
		return
	}
	sc.conn.Settle(tcpsim.ServerBuffer, sc.idle())
}

// sniffPreface decides whether the connection speaks mux framing, and
// starts the session if it does. It returns the bytes to feed, which
// for a session include the preface (the session strips it itself),
// or nil while undecided.
func (sc *serverConn) sniffPreface(data []byte) []byte {
	if len(sc.preBuf) == 0 && (len(data) == 0 || data[0] != 'P') {
		sc.muxDecided = true // no HTTP method starts with 'P' here
		return data
	}
	sc.preBuf = append(sc.preBuf, data...)
	pre := []byte(mux.Preface)
	n := min(len(sc.preBuf), len(pre))
	if bytes.Equal(sc.preBuf[:n], pre[:n]) && n < len(pre) {
		return nil
	}
	// Either the whole preface or not the preface after all, in which
	// case everything replays through HTTP.
	sc.muxDecided = true
	if bytes.Equal(sc.preBuf[:n], pre) {
		sc.startMux()
	}
	data = sc.preBuf
	sc.preBuf = nil
	return data
}

// parse feeds the HTTP/1.x parser and queues each request it completes.
// A malformed request is answered with 400 and the connection closed,
// and parse reports false.
func (sc *serverConn) parse(data []byte) bool {
	reqs, err := sc.parser.Feed(data)
	if err != nil {
		sc.srv.stats.ProtocolErrors++
		resp := httpmsg.NewResponse(httpmsg.Proto11, 400)
		sc.conn.Cork(func(b []byte) []byte { return resp.AppendFor(b, "GET") })
		sc.close() // flushes
		return false
	}
	for _, req := range reqs {
		sc.enqueue(job{req: req})
	}
	return true
}

// enqueue queues a client's request and starts serving it if the CPU
// is free for it.
func (sc *serverConn) enqueue(j job) {
	if b := sc.srv.cfg.Obs; b != nil {
		b.ServerRecv(sc.conn.ObsID(), j.req.Target)
	}
	sc.pending.Push(j)
	sc.processNext()
}

// idle reports that the connection has no queued work, the moment its
// output buffer goes out. On HTTP/1.x that is when no request is in
// service, waiting or half-parsed. A framed connection holds its output
// only while the CPU computes a response: waiting requests do not hold
// it back, or the client would handle the whole batch of responses
// after the last arrived, time that blame cannot yet attribute (ROADMAP
// item 13(b)). Deleting the framed term gives both framings the
// HTTP/1.x rule.
func (sc *serverConn) idle() bool {
	return !sc.busy && (sc.sess != nil || sc.pending.Len() == 0 && sc.parser.Buffered() == 0)
}

// OnPeerClose implements tcpsim.Handler. tcpsim reports the client's FIN
// before the connection enters CloseWait, so only an HTTP/1.x
// connection answers it here; a framed one closes at its next serve.
func (sc *serverConn) OnPeerClose(c *tcpsim.Conn) {
	sc.closeIfDrained(sc.sess == nil)
}

// closeIfDrained closes our half once the client has finished sending
// (finSeen, or the connection is in CloseWait) and every job is served.
func (sc *serverConn) closeIfDrained(finSeen bool) {
	if sc.busy || sc.stalled || sc.pending.Len() > 0 {
		return // the stall fault never answers, never closes
	}
	if finSeen || sc.conn.State() == tcpsim.StateCloseWait {
		sc.close()
	}
}

// processNext serves queued jobs one at a time through the host CPU.
func (sc *serverConn) processNext() {
	if sc.busy || sc.closing || sc.stalled || sc.pending.Len() == 0 {
		return
	}
	sc.busy = true
	if !sc.pending.Items()[0].pushed() {
		sc.srv.stats.Requests++
	}
	sc.srv.cpu.Run(sc.srv.cfg.PerRequestCPU, serveCurrent, sc)
}

// serveCurrent runs when the CPU has done the current job's work: it
// writes the job's response, or the fault scripted for it, lets the
// output buffer settle, and moves on to the next job.
func serveCurrent(a any) {
	sc := a.(*serverConn)
	j := sc.pending.Pop()
	sc.busy = false
	if sc.conn.State() == tcpsim.StateClosed {
		return
	}
	resp := sc.srv.respond(j.req, &sc.srv.resp)
	if b := sc.srv.cfg.Obs; b != nil {
		b.ServerSend(sc.conn.ObsID(), j.req.Target, resp.StatusCode, len(resp.Body))
	}
	var last, closeAfter bool
	if !sc.injectFault(j, resp) {
		last = sc.lastOnConn(j)
		closeAfter = sc.write(j, resp, last)
	}
	sc.conn.Settle(tcpsim.ServerBuffer, sc.idle())
	if closeAfter {
		sc.closeEarly(last)
	}
	sc.processNext()
	sc.closeIfDrained(false)
}

// lastOnConn counts j's response against MaxRequestsPerConn and reports
// whether it is the last the connection may serve.
func (sc *serverConn) lastOnConn(j job) bool {
	if sc.srv.cfg.MaxRequestsPerConn <= 0 || j.pushed() {
		return false
	}
	sc.served++
	return sc.served >= sc.srv.cfg.MaxRequestsPerConn
}

// write queues j's response in the connection's framing and reports
// whether the connection closes once the response is flushed: after
// its last allowed response, or when the client asked. A framed
// connection instead announces its last response with GOAWAY and
// closes at once, so that the GOAWAY leaves in the response's flush.
func (sc *serverConn) write(j job, resp *httpmsg.Response, last bool) (closeAfter bool) {
	if sc.sess != nil {
		sc.writeFramed(j, resp)
		if last {
			sc.closeEarly(true)
		}
		return false
	}
	closeAfter = last || j.req.WantsClose()
	if closeAfter && !sc.srv.cfg.NaiveClose {
		resp.Header.Add("Connection", "close")
	}
	// The output buffer is the corked tail of the connection's send
	// buffer: the head is marshalled straight into it and the body
	// queued by reference.
	sc.queue(resp, j.req.Method, -1)
	return closeAfter
}

// closeEarly closes the connection before the client is done with it:
// after its last allowed response, or at the client's request.
func (sc *serverConn) closeEarly(last bool) {
	if sc.closing {
		return
	}
	sc.srv.stats.EarlyCloses++
	if last && sc.srv.cfg.Fault.Kind == faults.EarlyClose {
		sc.fire(sc.served)
	}
	if sc.sess != nil {
		sc.sess.Goaway(mux.ErrCodeNo)
	}
	sc.close()
}

// fire counts the scripted fault and publishes it with ordinal seq.
func (sc *serverConn) fire(seq int) {
	sc.srv.stats.FaultsInjected++
	if b := sc.srv.cfg.Obs; b != nil {
		b.Fault(sc.conn.ObsID(), sc.srv.cfg.Fault.Kind.String(), int64(seq))
	}
}

// injectFault fires a scripted one-shot fault against j's response. It
// reports whether the fault consumed the response, in which case the
// response is not written. Response ordinals are counted server-wide so
// a fault fires exactly once per run.
func (sc *serverConn) injectFault(j job, resp *httpmsg.Response) bool {
	if sc.sess != nil {
		return sc.injectFramedFault(j, resp)
	}
	f := sc.srv.cfg.Fault
	if sc.srv.faultSeq++; sc.srv.faultSeq != f.At {
		return false
	}
	switch f.Kind {
	case faults.Stall:
		// Headers only, then silence forever on this connection: the
		// failure mode only a client timeout can clear.
		sc.answer(j.req, resp, 0)
		sc.fire(f.At)
		sc.stalled = true
	case faults.Truncate:
		// Partial body under a full Content-Length, then a full close:
		// the client detects the truncation at EOF.
		sc.answer(j.req, resp, f.Bytes)
		sc.fire(f.At)
		sc.closing = true
		sc.conn.Close()
	case faults.Abort:
		// Reset the connection with pipelined requests outstanding.
		sc.conn.Flush()
		sc.fire(f.At)
		sc.closing = true
		sc.conn.Abort()
	default:
		return false
	}
	return true
}

// answer sends what the server has buffered, then resp's head and the
// first bodyBytes of its body.
func (sc *serverConn) answer(req *httpmsg.Request, resp *httpmsg.Response, bodyBytes int) {
	sc.conn.Flush()
	sc.queue(resp, req.Method, bodyBytes)
	sc.conn.Flush()
}

// queue corks resp's head and then, by reference, its body, or only the
// body's first limit bytes when limit is not negative. The server never
// chunks, so the head ends where the body begins.
func (sc *serverConn) queue(resp *httpmsg.Response, method string, limit int) {
	var body []byte
	sc.conn.Cork(func(b []byte) (head []byte) {
		head, body = resp.AppendHeadFor(b, method)
		return head
	})
	if limit >= 0 && limit < len(body) {
		body = body[:limit]
	}
	sc.conn.CorkRef(body)
}

// respond builds the response for one request in resp, which it empties
// first, keeping its field array, and returns resp; the caller marshals
// it after adding any connection-management headers.
func (s *Server) respond(req *httpmsg.Request, resp *httpmsg.Response) *httpmsg.Response {
	proto := httpmsg.Proto11
	if !req.IsHTTP11() {
		proto = httpmsg.Proto10
	}
	if req.Method != "GET" && req.Method != "HEAD" {
		return finishHeaders(s.cfg.Profile, initResponse(resp, proto, 501))
	}
	obj, ok := s.site.Object(req.Target)
	if !ok {
		initResponse(resp, proto, 404)
		resp.Body = []byte("<html><body>404 Not Found</body></html>")
		resp.Header.Add("Content-Type", "text/html")
		return finishHeaders(s.cfg.Profile, resp)
	}

	// Conditional GET: entity tags take precedence over date validators.
	if inm := req.Header.Get("If-None-Match"); inm != "" {
		if httpmsg.ETagMatch(inm, obj.ETag) {
			initResponse(resp, proto, 304)
			resp.Header.Add("ETag", obj.ETag)
			s.stats.NotModified++
			return finishHeaders(s.cfg.Profile, resp)
		}
	} else if ims := req.Header.Get("If-Modified-Since"); ims != "" {
		if !httpmsg.ModifiedSince(obj.LastModified, ims) {
			initResponse(resp, proto, 304)
			s.stats.NotModified++
			return finishHeaders(s.cfg.Profile, resp)
		}
	}

	// Burst aggregation: a page request carrying Accept-Burst gets one
	// 200 whose body packs the page and every inline object as records,
	// built once per site and queued by reference like any site body.
	// It validates like the page itself (the conditional-GET paths above
	// already answered 304 when the page was fresh).
	if httpmsg.TokenListContains(req.Header.Get(mux.BurstRequestHeader), mux.BurstRequestValue) {
		if body, ok := s.site.Burst(req.Target); ok {
			initResponse(resp, proto, 200)
			resp.Header.Add("Content-Type", mux.BurstContentType)
			resp.Body = body
			resp.Header.Add("ETag", obj.ETag)
			resp.Header.Add("Last-Modified", obj.LastModified)
			return finishHeaders(s.cfg.Profile, resp)
		}
	}

	body := obj.Body
	initResponse(resp, proto, 200)
	resp.Header.Add("Content-Type", obj.ContentType)

	// Transport compression: the site's precomputed deflate coding of
	// its HTML, built once per site, for clients that accept it.
	if httpmsg.TokenListContains(req.Header.Get("Accept-Encoding"), "deflate") {
		if comp, ok := s.site.Deflated(req.Target); ok {
			body = comp
			resp.Header.Add("Content-Encoding", "deflate")
		}
	}

	// Byte ranges ("poor man's multiplexing"): honoured when If-Range
	// matches or is absent.
	if rangeHdr := req.Header.Get("Range"); rangeHdr != "" && req.IsHTTP11() {
		ifRange := req.Header.Get("If-Range")
		if ifRange == "" || ifRange == obj.ETag {
			if lo, hi, ok := parseRange(rangeHdr, len(body)); ok {
				resp.StatusCode = 206
				resp.Reason = httpmsg.StatusText(206)
				resp.Header.Add("Content-Range", fmt.Sprintf("bytes %d-%d/%d", lo, hi, len(body)))
				body = body[lo : hi+1]
			}
		}
	}

	resp.Body = body
	resp.Header.Add("ETag", obj.ETag)
	resp.Header.Add("Last-Modified", obj.LastModified)
	return finishHeaders(s.cfg.Profile, resp)
}

// initResponse empties resp, keeping its field array, and gives it a
// status line with the canonical reason phrase. It returns resp.
func initResponse(resp *httpmsg.Response, proto string, code int) *httpmsg.Response {
	resp.Header.Reset()
	*resp = httpmsg.Response{Proto: proto, StatusCode: code, Reason: httpmsg.StatusText(code), Header: resp.Header}
	return resp
}

// CanonicalResponse builds the exact 200 response the profile's server
// sends for an unconditional identity-coded GET of obj — status line,
// validators, and standing headers included. It exists so a shared cache
// can be warm-primed "as if" an earlier client had already pulled the
// site through it, without simulating that earlier fetch.
func CanonicalResponse(profile Profile, obj *webgen.Object) *httpmsg.Response {
	resp := httpmsg.NewResponse(httpmsg.Proto11, 200)
	resp.Header.Add("Content-Type", obj.ContentType)
	resp.Body = obj.Body
	resp.Header.Add("ETag", obj.ETag)
	resp.Header.Add("Last-Modified", obj.LastModified)
	return finishHeaders(profile, resp)
}

// finishHeaders adds the profile's standing headers.
func finishHeaders(profile Profile, resp *httpmsg.Response) *httpmsg.Response {
	h := &resp.Header
	switch profile {
	case ProfileApache:
		h.Add("Date", serverDate)
		h.Add("Server", "Apache/1.2b10")
	default:
		// Jigsaw's responses carried noticeably more header bytes; the
		// difference shows in the paper's revalidation byte counts
		// (17694 for Jigsaw vs 14009 for Apache).
		h.Add("Date", serverDate)
		h.Add("Server", "Jigsaw/1.06")
		h.Add("MIME-Version", "1.0")
		h.Add("Cache-Control", "max-age=86400")
		h.Add("Accept-Ranges", "bytes")
	}
	return resp
}

// parseRange parses a single "bytes=lo-hi" range.
func parseRange(h string, size int) (lo, hi int, ok bool) {
	h = strings.TrimSpace(h)
	if !strings.HasPrefix(h, "bytes=") {
		return 0, 0, false
	}
	spec := strings.TrimPrefix(h, "bytes=")
	if strings.Contains(spec, ",") {
		return 0, 0, false // multipart ranges unsupported
	}
	dash := strings.IndexByte(spec, '-')
	if dash < 0 {
		return 0, 0, false
	}
	loStr, hiStr := spec[:dash], spec[dash+1:]
	if loStr == "" {
		// suffix range: last N bytes
		n, err := strconv.Atoi(hiStr)
		if err != nil || n <= 0 {
			return 0, 0, false
		}
		if n > size {
			n = size
		}
		return size - n, size - 1, size > 0
	}
	loV, err := strconv.Atoi(loStr)
	if err != nil || loV < 0 || loV >= size {
		return 0, 0, false
	}
	hiV := size - 1
	if hiStr != "" {
		hiV, err = strconv.Atoi(hiStr)
		if err != nil || hiV < loV {
			return 0, 0, false
		}
		if hiV >= size {
			hiV = size - 1
		}
	}
	return loV, hiV, true
}

// close ends the connection, which flushes the buffered responses first:
// gracefully (half-close, drain) by default, or naively (both halves) in
// NaiveClose mode.
func (sc *serverConn) close() {
	if sc.closing {
		return
	}
	sc.closing = true
	if sc.srv.cfg.NaiveClose {
		sc.conn.Close()
		return
	}
	sc.conn.CloseWrite()
}
