// Package proxy implements the simulated shared HTTP/1.1 caching proxy
// the paper's deployment story assumed would sit between dialup users and
// the wide-area origin: a CERN/Harvest-style intermediary terminating
// persistent, pipelined client connections on the last-mile link and
// multiplexing misses onto a single persistent, pipelined upstream
// connection to the origin.
//
// The proxy serves fresh cached entries directly (answering client
// validators locally with 304s), revalidates stale entries upstream with
// If-None-Match/If-Modified-Since, collapses concurrent misses for one
// URL onto a single origin fetch, and stamps Via on everything it
// forwards and Age on everything it serves from cache, per RFC 2068.
// Cache admission, freshness, and eviction policy live in internal/cache.
package proxy

import (
	"errors"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/httpmsg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// ErrUpstream reports an origin fetch that failed after its retry.
var ErrUpstream = errors.New("proxy: upstream fetch failed")

// The proxy's fixed costs and settings: a lean 1997 proxy charging
// perRequestCPU and perConnCPU to its host's single CPU, buffering its
// client-side output like the origin server (tcpsim.ServerBuffer,
// flushed when no further pipelined responses are pending), and stamping
// via on the messages it forwards. Client and origin connections both
// run with TCP_NODELAY: the proxy pipelines misses and cannot afford
// Nagle stalls.
const (
	perRequestCPU = 2 * time.Millisecond
	perConnCPU    = 2 * time.Millisecond
	via           = "1.1 proxy"
)

// Config tunes proxy behaviour.
type Config struct {
	// Cache is the shared response cache; it is required.
	Cache *cache.Cache
	// Recovery governs upstream retries: each unanswered origin request
	// is re-sent on a fresh connection while faults.RetryBudget allows,
	// then answered with 502. Off keeps the classic behaviour: one
	// retry, then 502.
	Recovery bool
	// Obs, if non-nil, receives cache hit/miss/revalidation instants on
	// client connections and request lifecycle spans for upstream fetches.
	Obs *obs.Bus
}

// Stats counts proxy activity.
type Stats struct {
	// UpstreamSockets counts origin connections dialed (1 unless the
	// origin closed one).
	UpstreamSockets int
	// Requests counts client requests.
	Requests int
	// Hits are requests served from a fresh cache entry without touching
	// the origin; Misses fetched the origin with no usable entry;
	// Revalidations fetched conditionally for a stale entry, of which
	// RevalidationHits came back 304.
	Hits             int
	Misses           int
	Revalidations    int
	RevalidationHits int
	// LocalNotModified counts 304s the proxy answered from cached
	// validators without any origin traffic for that response.
	LocalNotModified int
	// Collapsed counts requests that joined an in-progress origin fetch
	// for the same URL instead of starting their own.
	Collapsed int
	// UpstreamRequests counts requests written to the origin, retries
	// included.
	UpstreamRequests int
	// BytesFromCache and BytesFromUpstream split response body bytes by
	// where they came from.
	BytesFromCache    int64
	BytesFromUpstream int64
}

// Proxy is one caching intermediary on one host and port.
type Proxy struct {
	sim   *sim.Simulator
	host  *tcpsim.Host
	cfg   Config
	cache *cache.Cache
	cpu   *sim.CPU

	upstreamHost string
	upstreamPort int
	up           *upstream

	stats Stats
}

// New creates a proxy listening on host:port, forwarding misses to
// upstreamHost:upstreamPort. rng adds CPU jitter when non-nil.
func New(s *sim.Simulator, host *tcpsim.Host, port int, upstreamHost string, upstreamPort int, cfg Config, rng *sim.Rand) *Proxy {
	p := &Proxy{
		sim:          s,
		host:         host,
		cfg:          cfg,
		cache:        cfg.Cache,
		cpu:          sim.NewCPU(s, rng),
		upstreamHost: upstreamHost,
		upstreamPort: upstreamPort,
	}
	host.Listen(port, tcpsim.Options{NoDelay: true}, func(c *tcpsim.Conn) tcpsim.Handler {
		return newProxyConn(p, c)
	})
	return p
}

// Stats returns a copy of the proxy counters.
func (p *Proxy) Stats() Stats { return p.stats }

// hopByHop reports header fields that must not be forwarded end-to-end.
func hopByHop(name string) bool {
	return strings.EqualFold(name, "Connection") ||
		strings.EqualFold(name, "Keep-Alive") ||
		strings.EqualFold(name, "Proxy-Connection")
}

// forwardRequest builds the upstream copy of a client request: HTTP/1.1,
// hop-by-hop fields stripped, Host rewritten to the origin, Via added.
func (p *Proxy) forwardRequest(req *httpmsg.Request) *httpmsg.Request {
	out := &httpmsg.Request{Method: req.Method, Target: req.Target, Proto: httpmsg.Proto11}
	for _, f := range req.Header.Fields() {
		switch {
		case hopByHop(f.Name):
		case strings.EqualFold(f.Name, "Host"):
			out.Header.Add("Host", p.upstreamHost)
		default:
			out.Header.Add(f.Name, f.Value)
		}
	}
	if !out.Header.Has("Host") {
		out.Header.Add("Host", p.upstreamHost)
	}
	out.Header.Add("Via", via)
	return out
}

// revalRequest builds the conditional GET that revalidates a stale entry.
func (p *Proxy) revalRequest(e *cache.Entry) *httpmsg.Request {
	req := &httpmsg.Request{Method: "GET", Target: e.Key, Proto: httpmsg.Proto11}
	req.Header.Add("Host", p.upstreamHost)
	if e.ETag != "" {
		req.Header.Add("If-None-Match", e.ETag)
	}
	if e.LastModified != "" {
		req.Header.Add("If-Modified-Since", e.LastModified)
	}
	req.Header.Add("Via", via)
	return req
}

// protoFor picks the response protocol version for a client request.
func protoFor(req *httpmsg.Request) string {
	if req.IsHTTP11() {
		return httpmsg.Proto11
	}
	return httpmsg.Proto10
}

// conditional reports whether a request carries cache validators.
func conditional(req *httpmsg.Request) bool {
	return req.Header.Has("If-None-Match") || req.Header.Has("If-Modified-Since")
}

// proxyConn is the per-client-connection state machine, and its
// handler. Responses go back in request order: a slot is reserved per
// parsed request and the head of the queue is written as soon as it is
// ready, so a fast cache hit never overtakes an earlier upstream miss.
type proxyConn struct {
	p      *Proxy
	conn   *tcpsim.Conn
	parser httpmsg.RequestParser

	slots      []*pxSlot
	closing    bool
	peerClosed bool
}

// pxSlot is one client request awaiting its in-order response.
type pxSlot struct {
	pc    *proxyConn
	req   *httpmsg.Request
	resp  *httpmsg.Response
	ready bool
}

func newProxyConn(p *Proxy, c *tcpsim.Conn) tcpsim.Handler {
	return &proxyConn{p: p, conn: c}
}

// handleSlot runs when the CPU has done a request's work.
func handleSlot(a any) {
	slot := a.(*pxSlot)
	slot.pc.handle(slot)
}

// OnConnect implements tcpsim.Handler: it charges the per-connection
// setup cost.
func (pc *proxyConn) OnConnect(c *tcpsim.Conn) {
	pc.p.cpu.Run(perConnCPU, sim.Nop, nil)
}

// OnError implements tcpsim.Handler.
func (pc *proxyConn) OnError(c *tcpsim.Conn, err error) {}

// OnClose implements tcpsim.Handler.
func (pc *proxyConn) OnClose(c *tcpsim.Conn) {}

// OnData implements tcpsim.Handler.
func (pc *proxyConn) OnData(c *tcpsim.Conn, data []byte) {
	if pc.closing {
		return
	}
	reqs, err := pc.parser.Feed(data)
	if err != nil {
		resp := httpmsg.NewResponse(httpmsg.Proto11, 400)
		pc.conn.Cork(func(b []byte) []byte { return resp.AppendFor(b, "GET") })
		pc.close() // flushes
		return
	}
	for _, req := range reqs {
		slot := &pxSlot{pc: pc, req: req}
		pc.slots = append(pc.slots, slot)
		pc.p.stats.Requests++
		pc.p.cpu.Run(perRequestCPU, handleSlot, slot)
	}
}

// OnPeerClose implements tcpsim.Handler.
func (pc *proxyConn) OnPeerClose(c *tcpsim.Conn) {
	pc.peerClosed = true
	if len(pc.slots) == 0 {
		pc.close()
	}
}

// handle routes one client request through the cache.
func (pc *proxyConn) handle(slot *pxSlot) {
	if pc.conn.State() == tcpsim.StateClosed {
		return
	}
	p := pc.p
	req := slot.req
	key := req.Target
	if req.Method != "GET" {
		// Forward, never store, and never share a flight: a GET that
		// joined a HEAD's fetch would be answered without a body.
		p.fetch(p.forwardRequest(req), pc.completeUpstream(slot))
		return
	}
	if e := p.cache.Get(key); e != nil {
		if p.cache.Fresh(e) {
			p.stats.Hits++
			p.cfg.Obs.CacheHit(pc.conn.ObsID(), key, len(e.Body))
			pc.complete(slot, pc.buildFromEntry(e, req))
			return
		}
		// Stale entry: revalidate upstream, then serve from the
		// refreshed entry (304) or the replacing response (200).
		p.stats.Revalidations++
		p.fetchThrough(key, p.revalRequest(e), true, e,
			func(resp *httpmsg.Response, err error) {
				if err != nil || resp == nil {
					p.cfg.Obs.CacheReval(pc.conn.ObsID(), key, false)
					pc.complete(slot, pc.gatewayError(req))
					return
				}
				if resp.StatusCode == 304 {
					p.cfg.Obs.CacheReval(pc.conn.ObsID(), key, true)
					pc.complete(slot, pc.buildFromEntry(e, req))
					return
				}
				p.cfg.Obs.CacheReval(pc.conn.ObsID(), key, false)
				pc.complete(slot, pc.forwardResponse(req, resp))
			})
		return
	}
	p.stats.Misses++
	p.cfg.Obs.CacheMiss(pc.conn.ObsID(), key)
	p.fetchThrough(key, p.forwardRequest(req), conditional(req), nil,
		pc.completeUpstream(slot))
}

// completeUpstream finishes a slot with a forwarded origin response or a
// 502.
func (pc *proxyConn) completeUpstream(slot *pxSlot) func(*httpmsg.Response, error) {
	return func(resp *httpmsg.Response, err error) {
		if err != nil || resp == nil {
			pc.complete(slot, pc.gatewayError(slot.req))
			return
		}
		pc.complete(slot, pc.forwardResponse(slot.req, resp))
	}
}

// fetchThrough performs (or joins) the origin fetch for key. Concurrent
// fetches of the same URL with the same conditionality collapse onto one
// upstream request; the flight owner applies cache maintenance exactly
// once (Store for a storable 200, Refresh of stale for a 304) before the
// waiters run. A request whose conditionality differs from the
// in-progress flight fetches directly, skipping cache maintenance — the
// shared response would have the wrong shape for it.
func (p *Proxy) fetchThrough(key string, upReq *httpmsg.Request, cond bool, stale *cache.Entry, cb func(*httpmsg.Response, error)) {
	if f := p.cache.Flight(key); f != nil {
		if f.Conditional == cond {
			p.stats.Collapsed++
			f.Join(cb)
			return
		}
		p.fetch(upReq, cb)
		return
	}
	f := p.cache.StartFlight(key, cond)
	f.Join(cb)
	p.fetch(upReq, func(resp *httpmsg.Response, err error) {
		if err == nil && resp != nil {
			switch {
			case resp.StatusCode == 304 && stale != nil:
				p.stats.RevalidationHits++
				p.cache.Refresh(stale, resp)
			case resp.StatusCode == 200 && cache.Storable(upReq, resp):
				p.cache.Store(key, resp)
			}
		}
		p.cache.FinishFlight(f, resp, err)
	})
}

// buildFromEntry serves a cached entry to one client: a local 304 when
// the client's validators match the entry, else a copy of the stored 200,
// with Age and Via stamped on either.
func (pc *proxyConn) buildFromEntry(e *cache.Entry, req *httpmsg.Request) *httpmsg.Response {
	p := pc.p
	proto := protoFor(req)
	if inm := req.Header.Get("If-None-Match"); inm != "" && e.ETag != "" {
		if httpmsg.ETagMatch(inm, e.ETag) {
			return pc.localNotModified(e, proto)
		}
	} else if ims := req.Header.Get("If-Modified-Since"); ims != "" && e.LastModified != "" {
		if !httpmsg.ModifiedSince(e.LastModified, ims) {
			return pc.localNotModified(e, proto)
		}
	}
	resp := &httpmsg.Response{
		Proto:      proto,
		StatusCode: e.Status,
		Reason:     httpmsg.StatusText(e.Status),
		Header:     e.Header.Clone(),
		Body:       e.Body,
	}
	pc.stamp(resp, e)
	p.stats.BytesFromCache += int64(len(e.Body))
	return resp
}

// localNotModified answers a client validator from the cache alone.
func (pc *proxyConn) localNotModified(e *cache.Entry, proto string) *httpmsg.Response {
	pc.p.stats.LocalNotModified++
	resp := httpmsg.NewResponse(proto, 304)
	if e.ETag != "" {
		resp.Header.Add("ETag", e.ETag)
	}
	pc.stamp(resp, e)
	return resp
}

// stamp adds the Age and Via of a cache-served response.
func (pc *proxyConn) stamp(resp *httpmsg.Response, e *cache.Entry) {
	resp.Header.Add("Age", strconv.FormatInt(int64(pc.p.cache.Age(e)/time.Second), 10))
	resp.Header.Add("Via", via)
}

// forwardResponse relays an origin response to one client, stamping Via
// and adapting the protocol version. Each client gets its own header copy
// (collapsed waiters share the origin message).
func (pc *proxyConn) forwardResponse(req *httpmsg.Request, resp *httpmsg.Response) *httpmsg.Response {
	out := &httpmsg.Response{
		Proto:      protoFor(req),
		StatusCode: resp.StatusCode,
		Reason:     resp.Reason,
		Header:     resp.Header.Clone(),
		Body:       resp.Body,
	}
	out.Header.Del("Connection")
	out.Header.Add("Via", via)
	return out
}

// gatewayError is the 502 a failed upstream fetch turns into.
func (pc *proxyConn) gatewayError(req *httpmsg.Request) *httpmsg.Response {
	resp := httpmsg.NewResponse(protoFor(req), 502)
	resp.Body = []byte("<html><body>502 Bad Gateway</body></html>")
	resp.Header.Add("Content-Type", "text/html")
	resp.Header.Add("Via", via)
	return resp
}

// complete fills a slot and writes every response now deliverable in
// order.
func (pc *proxyConn) complete(slot *pxSlot, resp *httpmsg.Response) {
	slot.resp = resp
	slot.ready = true
	pc.writeReady()
}

func (pc *proxyConn) writeReady() {
	if pc.closing || pc.conn.State() == tcpsim.StateClosed {
		return
	}
	for len(pc.slots) > 0 && pc.slots[0].ready {
		slot := pc.slots[0]
		pc.slots = pc.slots[1:]
		resp := slot.resp
		clientClose := slot.req.WantsClose()
		if clientClose {
			resp.Header.Set("Connection", "close")
		}
		// The head is marshalled into the connection's send buffer and the
		// body, the origin's bytes as parsed or cached, queued by reference.
		var body []byte
		pc.conn.Cork(func(b []byte) (head []byte) {
			head, body = resp.AppendHeadFor(b, slot.req.Method)
			return head
		})
		pc.conn.CorkRef(body)
		if clientClose {
			pc.close()
			return
		}
	}
	// Like the origin server's, the output buffer is the corked tail of
	// the connection's send buffer; it goes out once no further
	// pipelined responses are pending.
	pc.conn.Settle(tcpsim.ServerBuffer, len(pc.slots) == 0 && pc.parser.Buffered() == 0)
	if pc.peerClosed && len(pc.slots) == 0 {
		pc.close()
	}
}

func (pc *proxyConn) close() {
	if pc.closing {
		return
	}
	pc.closing = true
	pc.conn.CloseWrite() // flushes the buffered responses first
}

// upstreamFetch is one origin request awaiting its pipelined response.
type upstreamFetch struct {
	req      *httpmsg.Request
	cb       func(*httpmsg.Response, error)
	attempts int // re-sends so far
	span     obs.SpanID
}

// upstream is the proxy's persistent pipelined connection to the origin,
// and its handler.
type upstream struct {
	p        *Proxy
	conn     *tcpsim.Conn
	parser   httpmsg.ResponseParser
	inflight []*upstreamFetch
	dead     bool
}

// fetch issues an origin request on the shared upstream connection.
func (p *Proxy) fetch(req *httpmsg.Request, cb func(*httpmsg.Response, error)) {
	p.send(&upstreamFetch{req: req, cb: cb})
}

func (p *Proxy) send(uf *upstreamFetch) {
	u := p.ensureUpstream()
	p.stats.UpstreamRequests++
	uf.span = p.cfg.Obs.SpanQueuedVia(uf.req.Method, uf.req.Target, uf.attempts > 0, via)
	p.cfg.Obs.SpanWritten(uf.span, u.conn.ObsID())
	u.inflight = append(u.inflight, uf)
	u.parser.PushExpectation(uf.req.Method)
	u.conn.Cork(uf.req.AppendTo)
	u.conn.Flush()
}

// ensureUpstream returns the live origin connection, dialing if needed.
// The connection is never closed from the proxy side: it idles between
// client visits, like a long-lived proxy process would hold it.
func (p *Proxy) ensureUpstream() *upstream {
	if p.up != nil && !p.up.dead {
		return p.up
	}
	u := &upstream{p: p}
	u.conn = p.host.Dial(p.upstreamHost, p.upstreamPort, tcpsim.Options{NoDelay: true}, u)
	p.up = u
	p.stats.UpstreamSockets++
	return u
}

// OnConnect implements tcpsim.Handler.
func (u *upstream) OnConnect(c *tcpsim.Conn) {}

// OnData implements tcpsim.Handler.
func (u *upstream) OnData(c *tcpsim.Conn, data []byte) {
	if len(u.inflight) > 0 {
		u.p.cfg.Obs.SpanFirstByte(u.inflight[0].span)
	}
	resps, err := u.parser.Feed(data)
	if err != nil {
		u.conn.Abort()
		u.fail()
		return
	}
	u.deliver(resps)
}

func (u *upstream) deliver(resps []*httpmsg.Response) {
	for _, resp := range resps {
		if len(u.inflight) == 0 {
			break
		}
		uf := u.inflight[0]
		u.inflight = u.inflight[1:]
		u.p.cfg.Obs.SpanDone(uf.span, resp.StatusCode, int64(len(resp.Body)))
		u.p.stats.BytesFromUpstream += int64(len(resp.Body))
		uf.cb(resp, nil)
	}
}

// OnPeerClose implements tcpsim.Handler.
func (u *upstream) OnPeerClose(c *tcpsim.Conn) {
	// Origin finished sending (Connection: close or a per-connection
	// request limit): complete any until-close body, then retire the
	// connection and retry what was left unanswered.
	resp, err := u.parser.CloseEOF()
	if err == nil && resp != nil && len(u.inflight) > 0 {
		u.deliver([]*httpmsg.Response{resp})
	}
	if !u.dead {
		u.conn.CloseWrite()
	}
	u.fail()
}

// OnError implements tcpsim.Handler.
func (u *upstream) OnError(c *tcpsim.Conn, err error) { u.fail() }

// OnClose implements tcpsim.Handler.
func (u *upstream) OnClose(c *tcpsim.Conn) { u.fail() }

// fail retires the connection, re-sending each unanswered request on a
// fresh connection while the recovery policy's budget allows, then
// failing it (the client sees 502). Without Recovery the budget is 1:
// the classic retry-once-then-502 behaviour.
func (u *upstream) fail() {
	if u.dead {
		return
	}
	u.dead = true
	budget := 1
	if u.p.cfg.Recovery {
		budget = faults.RetryBudget
	}
	pending := u.inflight
	u.inflight = nil
	for _, uf := range pending {
		if uf.attempts < budget {
			uf.attempts++
			u.p.send(uf)
			continue
		}
		uf.cb(nil, ErrUpstream)
	}
}
