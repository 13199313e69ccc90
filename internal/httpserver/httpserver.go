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
	// (0 = unlimited). Apache 1.2b2 shipped with 5.
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
	// Faults scripts deterministic server-side failures (early close,
	// truncation, abort, stall). The zero value injects nothing and
	// leaves every serving path untouched. On a framed (mux)
	// connection the same scripts map onto framing-level misbehaviour:
	// early close becomes GOAWAY+close, truncation ends a stream early
	// and closes, abort resets the transport, and stall wedges one
	// stream (headers sent, body never) while the rest of the session
	// keeps serving.
	Faults faults.ServerFaults
	// MuxFaults scripts failures specific to framed connections
	// (mid-stream RST, mid-frame truncation, garbage frames,
	// push-then-abort, settings stall). Inert on HTTP/1.x connections.
	MuxFaults faults.MuxFaults
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
	// The early-close fault rides the existing per-connection request
	// limit, which already implements both close styles.
	if c.Faults.CloseAfterResponses > 0 {
		c.MaxRequestsPerConn = c.Faults.CloseAfterResponses
		c.NaiveClose = c.Faults.NaiveClose
	}
	return c
}

// Stats counts server-side activity.
type Stats struct {
	Connections    int
	Requests       int
	Responses      int
	NotModified    int
	PartialContent int
	DeflateServed  int
	BytesOut       int64
	EarlyCloses    int
	ProtocolErrors int
	// Mux-mode counters: streams the server pushed unasked, and
	// transitions into an exhausted send window (stream or connection)
	// while pumping response DATA.
	PushedStreams     int
	FlowControlStalls int
	// FaultsInjected counts scripted faults that actually fired:
	// one-shot response faults (truncation, abort, stall) and closes
	// forced by a scripted CloseAfterResponses limit.
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
	// faultSeq numbers responses server-wide (1-based) so one-shot
	// scripted faults fire exactly once even across retried connections.
	faultSeq int
	// muxSeq and pushSeq are the framed-path equivalents: muxSeq
	// numbers client-requested framed responses, pushSeq numbers
	// promised pushes. Kept separate from faultSeq so the two serving
	// paths cannot perturb each other's one-shot ordinals.
	muxSeq  int
	pushSeq int
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

// serverConn is the per-connection state machine, and its handler.
type serverConn struct {
	srv    *Server
	conn   *tcpsim.Conn
	parser httpmsg.RequestParser

	pending sim.Queue[*httpmsg.Request] // parsed, not yet processed
	// inService is the request the CPU is working on, nil when idle:
	// processNext serves one request at a time.
	inService *httpmsg.Request
	// resp is filled for each response in turn: serve marshals its head
	// into the send buffer at once, so one serves the connection.
	resp    httpmsg.Response
	served  int
	closing bool
	// stalled wedges the connection after a scripted stall fault: no
	// further bytes are ever sent and no close is initiated.
	stalled bool

	// Mux sniffing: a connection whose first bytes are the mux
	// connection preface is handed to a framed session instead of the
	// HTTP/1.x parser. preBuf holds bytes while the preface is still
	// ambiguous (it can arrive split).
	mux        *muxServerConn
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
	if sc.mux != nil {
		sc.mux.feed(data)
		return
	}
	if !sc.muxDecided {
		if data = sc.sniffPreface(data); data == nil {
			return
		}
	}
	reqs, err := sc.parser.Feed(data)
	if err != nil {
		sc.srv.stats.ProtocolErrors++
		resp := httpmsg.NewResponse(httpmsg.Proto11, 400)
		sc.conn.Cork(func(b []byte) []byte { return resp.AppendFor(b, "GET") })
		sc.close() // flushes
		return
	}
	for _, req := range reqs {
		if b := sc.srv.cfg.Obs; b != nil {
			b.ServerRecv(sc.conn.ObsID(), req.Target)
		}
		sc.pending.Push(req)
	}
	sc.processNext()
}

// sniffPreface decides whether the connection speaks mux framing. It
// returns the bytes the HTTP/1.x parser should consume (nil while
// undecided or once the mux session has taken over).
func (sc *serverConn) sniffPreface(data []byte) []byte {
	if len(sc.preBuf) == 0 && (len(data) == 0 || data[0] != 'P') {
		sc.muxDecided = true // no HTTP method starts with 'P' here
		return data
	}
	sc.preBuf = append(sc.preBuf, data...)
	pre := []byte(mux.Preface)
	n := min(len(sc.preBuf), len(pre))
	if !bytes.Equal(sc.preBuf[:n], pre[:n]) {
		// Not the preface after all: replay everything through HTTP.
		sc.muxDecided = true
		data = sc.preBuf
		sc.preBuf = nil
		return data
	}
	if len(sc.preBuf) >= len(pre) {
		sc.muxDecided = true
		buf := sc.preBuf
		sc.preBuf = nil
		sc.startMux()
		sc.mux.feed(buf) // the session strips the preface itself
	}
	return nil
}

// OnPeerClose implements tcpsim.Handler.
func (sc *serverConn) OnPeerClose(c *tcpsim.Conn) {
	if sc.stalled {
		return // the stall fault never answers, never closes
	}
	if sc.mux != nil {
		sc.mux.maybeClose()
		return
	}
	// Client finished sending. Once all pending work drains, close our
	// half too.
	if sc.inService == nil && sc.pending.Len() == 0 {
		sc.close()
	}
}

// processNext serves queued requests one at a time through the host CPU.
func (sc *serverConn) processNext() {
	if sc.inService != nil || sc.closing || sc.stalled || sc.pending.Len() == 0 {
		return
	}
	sc.inService = sc.pending.Pop()
	sc.srv.stats.Requests++
	sc.srv.cpu.Run(sc.srv.cfg.PerRequestCPU, serveInService, sc)
}

// serveInService runs when the CPU has done a request's work.
func serveInService(a any) {
	sc := a.(*serverConn)
	req := sc.inService
	sc.inService = nil
	if sc.conn.State() == tcpsim.StateClosed {
		return
	}
	sc.serve(req)
}

func (sc *serverConn) serve(req *httpmsg.Request) {
	resp := sc.srv.respond(req, &sc.resp)
	sc.srv.stats.Responses++
	if b := sc.srv.cfg.Obs; b != nil {
		b.ServerSend(sc.conn.ObsID(), req.Target, resp.StatusCode, len(resp.Body))
	}
	if sc.srv.cfg.Faults.Any() && sc.injectFault(req, resp) {
		return
	}

	lastOnConn := false
	if sc.srv.cfg.MaxRequestsPerConn > 0 {
		sc.served++
		if sc.served >= sc.srv.cfg.MaxRequestsPerConn {
			lastOnConn = true
		}
	}
	clientClose := req.WantsClose()
	if (lastOnConn || clientClose) && !sc.srv.cfg.NaiveClose {
		resp.Header.Add("Connection", "close")
	}

	// The output buffer is the corked tail of the connection's send
	// buffer: the head is marshalled straight into it and the body queued
	// by reference. It goes out once no more requests are coming in.
	sc.srv.stats.BytesOut += int64(sc.queue(resp, req.Method, -1))
	sc.conn.Settle(tcpsim.ServerBuffer, sc.pending.Len() == 0 && sc.parser.Buffered() == 0)

	if lastOnConn || clientClose {
		sc.srv.stats.EarlyCloses++
		if lastOnConn && sc.srv.cfg.Faults.CloseAfterResponses > 0 {
			sc.srv.stats.FaultsInjected++
			if b := sc.srv.cfg.Obs; b != nil {
				b.Fault(sc.conn.ObsID(), "early-close", int64(sc.served))
			}
		}
		sc.close()
		return
	}
	sc.processNext()
	// If the client already half-closed and everything is served, finish
	// our half too.
	if sc.inService == nil && sc.pending.Len() == 0 && sc.conn.State() == tcpsim.StateCloseWait {
		sc.close()
	}
}

// injectFault fires the scripted one-shot faults against this response.
// It reports whether a fault consumed the response, in which case the
// normal serving path must not continue. Response ordinals are counted
// server-wide so a fault fires exactly once per run.
func (sc *serverConn) injectFault(req *httpmsg.Request, resp *httpmsg.Response) bool {
	f := sc.srv.cfg.Faults
	sc.srv.faultSeq++
	seq := sc.srv.faultSeq
	// answer sends what the server has buffered, then resp's head and
	// the first bodyBytes of its body.
	answer := func(bodyBytes int) {
		sc.conn.Flush()
		sc.srv.stats.BytesOut += int64(sc.queue(resp, req.Method, bodyBytes))
		sc.conn.Flush()
	}
	fire := func(kind string) {
		sc.srv.stats.FaultsInjected++
		if b := sc.srv.cfg.Obs; b != nil {
			b.Fault(sc.conn.ObsID(), kind, int64(seq))
		}
	}
	switch {
	case f.StallResponse > 0 && seq == f.StallResponse:
		// Headers only, then silence forever on this connection: the
		// failure mode only a client timeout can clear.
		answer(0)
		fire("stall")
		sc.stalled = true
		return true
	case f.TruncateResponse > 0 && seq == f.TruncateResponse:
		// Partial body under a full Content-Length, then a full close:
		// the client detects the truncation at EOF.
		answer(f.TruncateBodyBytes)
		fire("truncate")
		sc.closing = true
		sc.conn.Close()
		return true
	case f.AbortResponse > 0 && seq == f.AbortResponse:
		// Reset the connection with pipelined requests outstanding.
		sc.conn.Flush()
		fire("abort")
		sc.closing = true
		sc.conn.Abort()
		return true
	}
	return false
}

// queue corks resp's head and then, by reference, its body, or only the
// body's first limit bytes when limit is not negative. It returns the
// bytes queued. The server never chunks, so the head ends where the body
// begins.
func (sc *serverConn) queue(resp *httpmsg.Response, method string, limit int) int {
	var body []byte
	n := sc.conn.Cork(func(b []byte) (head []byte) {
		head, body = resp.AppendHeadFor(b, method)
		return head
	})
	if limit >= 0 && limit < len(body) {
		body = body[:limit]
	}
	return n + sc.conn.CorkRef(body)
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
			s.stats.DeflateServed++
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
				s.stats.PartialContent++
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
