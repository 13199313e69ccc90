package httpclient

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/flatez"
	"repro/internal/htmlparse"
	"repro/internal/httpmsg"
	"repro/internal/mux"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// workItem is one HTTP request to perform.
type workItem struct {
	method      string
	path        string
	conditional bool
	isHTML      bool
	retried     bool
	// rangeLo/rangeHi select a byte range (both zero = none; rangeHi of
	// -1 = open-ended). Probes are the paper's "poor man's multiplexing":
	// a validation that, if the entity changed, returns only its first
	// bytes so large objects cannot monopolize the connection.
	rangeLo, rangeHi int
	probe            bool
	remainder        bool
	// span is the item's timeline span (0 when observability is off).
	span obs.SpanID
}

// hasRange reports whether the item carries a Range header.
func (it workItem) hasRange() bool { return it.rangeLo != 0 || it.rangeHi != 0 }

// Robot drives one page fetch over the simulated network.
type Robot struct {
	sim        *sim.Simulator
	host       *tcpsim.Host
	serverHost string
	serverPort int
	cfg        Config
	cache      *Cache
	cpu        *sim.CPU

	workload  Workload
	queue     sim.Queue[workItem]
	conns     []*clientConn
	mux       *muxConn
	extractor htmlparse.LinkExtractor
	index     *htmlparse.PageIndex
	enqueued  map[string]bool
	imageURLs []string

	issued      int
	handled     int
	htmlPending bool
	finished    bool
	metaPending int
	onDone      func(*Robot)

	// req is the request buildItemRequest fills for each item: the wire
	// form is marshalled from it at once, so one serves every request.
	req httpmsg.Request
	// handoffs holds each response awaiting its per-response CPU work,
	// with the item it answers. CPU completes work in the order it was
	// queued, so handleNext pops the response its work item was for.
	handoffs sim.Queue[handoff]
	// bodyChunk is every connection's ResponseParser.BodyChunk hook.
	bodyChunk func(head *httpmsg.Response, chunk []byte)

	// Recovery state, all inert while cfg.Recovery is off.
	consecFails  int
	retryCharge  int // retries counted against faults.RetryBudget
	backoffUntil sim.Time
	backoffTimer sim.TimerHandle
	recoverFrom  sim.Time
	recovering   bool
	lastData     sim.Time

	result Result
}

// NewRobot builds a robot on the given host. rng adds CPU jitter when
// non-nil.
func NewRobot(s *sim.Simulator, host *tcpsim.Host, serverHost string, serverPort int, cfg Config, cache *Cache, rng *sim.Rand) *Robot {
	if cache == nil {
		cache = NewCache()
	}
	r := &Robot{
		sim:        s,
		host:       host,
		serverHost: serverHost,
		serverPort: serverPort,
		cfg:        cfg,
		cache:      cache,
		cpu:        sim.NewCPU(s, rng),
		enqueued:   make(map[string]bool),
	}
	r.bodyChunk = r.pageChunk
	return r
}

// handoff is a response awaiting the robot's CPU, and the item it answers.
type handoff struct {
	it   workItem
	resp *httpmsg.Response
}

// handleNext handles the oldest response awaiting the robot's CPU.
func handleNext(a any) {
	r := a.(*Robot)
	h := r.handoffs.Pop()
	r.handleResponse(h.it, h.resp)
}

// pageChunk parses the page for inline links as it streams in.
func (r *Robot) pageChunk(head *httpmsg.Response, chunk []byte) {
	// Identify the page by its media type: one Feed call can complete
	// several pipelined responses, so the request queue's head is not
	// a reliable indicator of what is currently streaming.
	if head.StatusCode != 200 {
		return
	}
	if !strings.Contains(head.Header.Get("Content-Type"), "text/html") {
		return
	}
	if head.Header.Get("Content-Encoding") != "" {
		return // compressed bodies are parsed after inflation
	}
	r.discoverLinks(chunk)
}

// CPUTime returns the total simulated CPU work the robot has consumed.
func (r *Robot) CPUTime() sim.Duration { return r.cpu.TotalWork() }

// Result returns the fetch summary so far.
func (r *Robot) Result() Result { return r.result }

// Finished reports whether the fetch completed.
func (r *Robot) Finished() bool { return r.finished }

// ArmIndex hands the robot the link index of the page it will fetch
// (the served site's LinkIndex). Link discovery then replays the index
// for as long as the page arrives as indexed and scans what does not,
// finding the same links after the same bytes either way. Call it before
// Start; without it the robot scans every page.
func (r *Robot) ArmIndex(idx *htmlparse.PageIndex) { r.index = idx }

// Start begins fetching pagePath under the given workload. onDone (may be
// nil) fires when the page and all inline objects are done.
func (r *Robot) Start(pagePath string, workload Workload, onDone func(*Robot)) {
	r.workload = workload
	r.onDone = onDone
	r.htmlPending = true
	r.extractor.Arm(r.index)

	item := workItem{method: "GET", path: pagePath, isHTML: true}
	if workload == Revalidate && !r.cfg.RevalidateHTMLUnconditionally {
		if _, ok := r.cache.Get(pagePath); ok {
			item.conditional = true
		}
	}
	item.span = r.cfg.Obs.SpanQueued(item.method, item.path, false)
	r.queue.Push(item)
	r.enqueued[pagePath] = true
	r.metaPending++
	r.dispatch()
}

// enqueueImage queues a fetch/validation for one discovered inline URL.
func (r *Robot) enqueueImage(url string) {
	if r.cfg.PageOnly || r.enqueued[url] {
		return
	}
	r.enqueued[url] = true
	r.imageURLs = append(r.imageURLs, url)
	it := workItem{method: "GET", path: url}
	if r.workload == Revalidate {
		if r.cfg.RevalImagesViaHEAD {
			it.method = "HEAD"
		} else if _, ok := r.cache.Get(url); ok {
			it.conditional = true
			if r.cfg.RevalRangeProbe > 0 {
				it.probe = true
				it.rangeLo, it.rangeHi = 0, r.cfg.RevalRangeProbe-1
			}
		}
	}
	it.span = r.cfg.Obs.SpanQueued(it.method, it.path, false)
	r.metaPending++
	r.queue.Push(it)
}

// discoverLinks feeds HTML to the streaming extractor, queueing inline
// resources as they appear — possibly while the page is still arriving.
func (r *Robot) discoverLinks(chunk []byte) {
	links := r.extractor.Feed(chunk)
	if len(links) == 0 {
		return
	}
	for _, l := range links {
		if l.Kind.Inline() {
			r.enqueueImage(l.URL)
		}
	}
	r.dispatch()
}

// dispatch moves queued work onto connections: a framed robot's onto
// its mux session, an HTTP/1.x robot's through idleConn, which hands a
// pipelining robot its one connection whatever it has outstanding.
func (r *Robot) dispatch() {
	if r.finished || r.holdForBackoff() {
		return
	}
	if r.cfg.Mode.Framed() {
		r.muxDispatch()
	} else {
		for r.queue.Len() > 0 {
			c := r.idleConn()
			if c == nil {
				break
			}
			c.enqueue(r.queue.Pop())
		}
		// Flush before idle: once the document parse is complete no
		// further requests can appear, so waiting for the timer would
		// only lose time (the paper's explicit-flush insight).
		if c := r.liveConn(); c != nil && !r.htmlPending {
			c.conn.Settle(r.outBuffer(), true)
		}
	}
	r.checkDone()
}

// holdForBackoff delays re-dialing while the recovery policy's backoff
// window is open. Queued work stays queued; a timer resumes dispatch
// when the window closes. Existing live connections are not affected.
func (r *Robot) holdForBackoff() bool {
	if !r.cfg.Recovery || r.queue.Len() == 0 {
		return false
	}
	if r.backoffUntil <= r.sim.Now() || r.liveConn() != nil {
		return false
	}
	if !r.backoffTimer.Active() {
		r.backoffTimer = r.sim.AtArg(r.backoffUntil, robotDispatch, r)
	}
	return true
}

// pipelines reports whether the robot pipelines requests on its
// connection; a reset (or the ladder) can turn this off mid-fetch.
func (r *Robot) pipelines() bool { return r.cfg.Pipelining }

// stepDown takes the degradation ladder's next rung below the robot's
// current protocol and reports whether there was one: framed
// multiplexing → HTTP/1.1 pipelining → one request at a time →
// HTTP/1.0, one request per connection. The serial rung is also the
// legacy answer to a reset with pipelined requests outstanding, so it is
// taken without a Recovery policy too, but counted only under one.
func (r *Robot) stepDown() bool {
	switch {
	case r.cfg.Mode.Framed():
		r.cfg.Mode = ModeHTTP11Pipelined
		r.cfg.Pipelining, r.cfg.ExplicitFirstFlush = true, true
		r.fellBack(1, "pipelined")
	case r.pipelines():
		r.cfg.Pipelining = false
		if r.cfg.Recovery {
			r.fellBack(1, "serial")
		}
	case r.cfg.Proto == "HTTP/1.1":
		r.cfg.Proto, r.cfg.KeepAlive, r.cfg.Pipelining = "HTTP/1.0", false, false
		r.fellBack(2, "http10")
	default:
		return false
	}
	return true
}

// fellBack counts one step down the ladder and publishes it.
func (r *Robot) fellBack(level int, name string) {
	r.result.Fallbacks++
	r.cfg.Obs.Fallback(level, name)
}

// liveConn returns the open connection, if any.
func (r *Robot) liveConn() *clientConn {
	for _, c := range r.conns {
		if !c.dead {
			return c
		}
	}
	return nil
}

// idleConn returns a connection that can take a request — for a
// pipelining robot its live one, otherwise one with nothing outstanding —
// or dials a new one within MaxConns.
func (r *Robot) idleConn() *clientConn {
	pipelines := r.pipelines()
	live := 0
	for _, c := range r.conns {
		if c.dead {
			continue
		}
		live++
		if pipelines || c.inflight.Len() == 0 {
			return c
		}
	}
	if live < r.cfg.MaxConns {
		return r.dial()
	}
	return nil
}

// retainBodies keeps every response body, as the robot did before it
// counted the ones nothing reads; only the kept-versus-counted test sets it.
var retainBodies bool

// wantsBody reports whether the robot will read a response's body: a
// deflate-coded page is inflated and a burst payload decoded, but an
// identity page is parsed as it streams (BodyChunk), and of everything
// else, the images above all, only the length is used.
func wantsBody(h *httpmsg.Header) bool {
	return retainBodies || h.Get("Content-Encoding") == "deflate" ||
		h.Get("Content-Type") == mux.BurstContentType
}

func (r *Robot) dial() *clientConn {
	cc := &clientConn{r: r}
	cc.parser.KeepBody = func(head *httpmsg.Response) bool { return wantsBody(&head.Header) }
	cc.parser.BodyChunk = r.bodyChunk
	opts := tcpsim.Options{NoDelay: r.cfg.NoDelay, InitialCwndSegments: r.cfg.InitialCwndSegments}
	cc.conn = r.host.Dial(r.serverHost, r.serverPort, opts, cc)
	r.conns = append(r.conns, cc)
	r.result.SocketsUsed++
	r.result.MaxSimultaneousConns = max(r.result.MaxSimultaneousConns, r.liveCount())
	return cc
}

// liveCount is the number of open connections, a mux session's among
// them.
func (r *Robot) liveCount() int {
	n := 0
	if r.mux != nil && !r.mux.dead {
		n++
	}
	for _, c := range r.conns {
		if !c.dead {
			n++
		}
	}
	return n
}

// buildItemRequest composes the wire request for a work item in the
// robot's one Request, which the next call refills.
func (r *Robot) buildItemRequest(it workItem) *httpmsg.Request {
	req := buildRequest(&r.req, r.cfg.Style, it.method, it.path, r.serverHost, r.cfg.Proto)
	if it.conditional {
		if e, ok := r.cache.Get(it.path); ok {
			if r.cfg.Style == StyleRobot11 {
				// Full HTTP/1.1 validators: entity tag plus date.
				req.Header.Add("If-None-Match", e.ETag)
			}
			req.Header.Add("If-Modified-Since", e.LastModified)
		}
	}
	if it.hasRange() {
		if it.rangeHi < 0 {
			req.Header.Add("Range", fmt.Sprintf("bytes=%d-", it.rangeLo))
		} else {
			req.Header.Add("Range", fmt.Sprintf("bytes=%d-%d", it.rangeLo, it.rangeHi))
		}
	}
	if it.isHTML && r.cfg.AcceptDeflate {
		req.Header.Add("Accept-Encoding", "deflate")
	}
	if it.isHTML && r.cfg.Mode == ModeBurst {
		req.Header.Add(mux.BurstRequestHeader, mux.BurstRequestValue)
	}
	return req
}

// handleResponse runs after per-response client CPU work.
func (r *Robot) handleResponse(it workItem, resp *httpmsg.Response) {
	if r.finished {
		return
	}
	if r.cfg.Recovery {
		r.consecFails = 0
		if it.retried {
			r.result.RequestsRecovered++
			if r.recovering {
				// First retried response since the failure streak began:
				// close the recovery interval.
				r.recovering = false
				r.result.RecoverySeconds += r.sim.Now().Sub(r.recoverFrom).Seconds()
			}
		}
	}
	// body is nil when wantsBody declined it; size is what arrived.
	body, size := resp.Body, resp.BodyLen
	switch resp.StatusCode {
	case 200:
		r.result.Responses200++
	case 206:
		r.result.Responses206++
	case 304:
		r.result.Responses304++
	}
	r.result.PayloadBytes += int64(size)

	// First response for an object completes its metadata (size, header
	// fields, leading bytes) — the quantity range probing accelerates.
	if !it.remainder {
		r.metaPending--
		if r.metaPending == 0 {
			// Later discoveries re-raise the count, so the last zero
			// crossing (which overwrites this) is the real completion.
			r.result.MetadataSeconds = r.sim.Now().Seconds()
		}
	}

	// A probe that hit a changed entity returned only its head; fetch the
	// remainder to complete the object.
	if it.probe && resp.StatusCode == 206 {
		total := contentRangeTotal(resp.Header.Get("Content-Range"))
		if total > it.rangeHi+1 {
			r.queue.Push(workItem{
				method:    "GET",
				path:      it.path,
				rangeLo:   it.rangeHi + 1,
				rangeHi:   -1,
				remainder: true,
				span:      r.cfg.Obs.SpanQueued("GET", it.path, false),
			})
		}
	}

	// A burst is the metadata and the body of every object on the page.
	burst := it.isHTML && r.cfg.Mode == ModeBurst
	deflated := resp.Header.Get("Content-Encoding") == "deflate"
	bursted := burst && resp.StatusCode == 200 && resp.Header.Get("Content-Type") == mux.BurstContentType
	var records []mux.BurstRecord
	var err error
	switch {
	case deflated:
		r.result.DeflateResponses++
		if body, err = flatez.Decompress(body); err == nil {
			size = len(body)
			r.result.InflatedBytes += int64(size)
		}
	case bursted:
		records, err = mux.DecodeBurst(body)
	}
	if err != nil {
		// Nothing to parse and nothing to cache: the request failed.
		r.result.RequestsFailed++
		if it.isHTML {
			r.htmlPending = false
		}
		r.handled++
		r.dispatch()
		return
	}

	if it.isHTML {
		if resp.StatusCode == 200 {
			if deflated {
				// Compressed page: parse the inflated document now.
				r.discoverLinks(body)
			}
			// Identity-coded pages were parsed incrementally via the
			// BodyChunk hook.
		}
		if r.workload == Revalidate && resp.StatusCode == 304 {
			// The cached page is fresh: validate every inline object the
			// cache recorded for it — a burst's 304 already has.
			if e, ok := r.cache.Get(it.path); ok {
				for _, url := range e.Links {
					if !burst {
						r.enqueueImage(url)
					} else if c, ok := r.cache.Get(url); ok {
						c.Validations++
					}
				}
			}
		}
		r.htmlPending = false
	}

	// Cache maintenance.
	switch {
	case bursted:
		r.cacheRecords(it.path, records)
	case resp.StatusCode == 200:
		e := &Entry{
			Path:         it.path,
			ETag:         resp.Header.Get("ETag"),
			LastModified: resp.Header.Get("Last-Modified"),
			Size:         size,
		}
		if it.isHTML {
			e.Links = append([]string(nil), r.imageURLs...)
		}
		r.cache.Put(e)
	case resp.StatusCode == 206:
		if e, ok := r.cache.Get(it.path); ok {
			if et := resp.Header.Get("ETag"); et != "" {
				e.ETag = et
			}
			if lm := resp.Header.Get("Last-Modified"); lm != "" {
				e.LastModified = lm
			}
		}
	case resp.StatusCode == 304:
		if e, ok := r.cache.Get(it.path); ok {
			e.Validations++
		}
	}

	r.handled++
	r.dispatch()
}

// cacheRecords stores every object a burst response carried; the page's
// entry lists the others as its inline links.
func (r *Robot) cacheRecords(page string, records []mux.BurstRecord) {
	var links []string
	for _, rec := range records {
		if rec.Path != page {
			links = append(links, rec.Path)
		}
	}
	for _, rec := range records {
		e := &Entry{
			Path:         rec.Path,
			ETag:         rec.ETag,
			LastModified: rec.LastModified,
			Size:         len(rec.Body),
		}
		if rec.Path == page {
			e.Links = links
		}
		r.cache.Put(e)
	}
}

// checkDone finishes the fetch when all issued work is complete.
func (r *Robot) checkDone() {
	if r.finished || r.htmlPending || r.queue.Len() > 0 || r.handled < r.issued {
		return
	}
	r.finished = true
	r.result.Done = true
	r.result.Requests = r.issued
	r.result.CompleteSeconds = r.sim.Now().Seconds()
	if r.metaPending > 0 {
		r.result.MetadataSeconds = r.result.CompleteSeconds
	}
	for _, c := range r.conns {
		if !c.dead {
			c.conn.Settle(r.outBuffer(), true)
			c.conn.CloseWrite()
		}
	}
	if r.mux != nil {
		r.mux.finish()
	}
	if r.onDone != nil {
		r.onDone(r)
	}
}

// failConn re-queues unanswered requests from a failed or closed
// connection and retires it. A reset with pipelined requests outstanding
// leaves the client unable to tell which requests succeeded (the paper's
// connection-management scenario), so the robot falls back to one
// request at a time, the defensive behaviour deployed clients adopted.
// Under a Recovery policy a graceful close that takes a pipelined batch
// down with it does the same (each close costs the whole outstanding
// batch, and clean re-pipelining can repeat forever), and failures count
// towards backoff and the rest of the ladder (noteFailure).
func (r *Robot) failConn(cc *clientConn, isError bool) {
	if cc.dead {
		return
	}
	cc.dead = true
	cc.stopWatchdog()
	n := cc.inflight.Len()
	if r.pipelines() && (isError || r.cfg.Recovery && n > 1) {
		r.stepDown()
	}
	if isError {
		r.noteFailure()
	}
	if n > 0 {
		// Bytes of a partial in-progress response are delivered work the
		// retry will repeat.
		r.result.WastedBytes += int64(cc.parser.Pending())
		for _, it := range cc.inflight.Items() {
			r.requeue(it, true)
		}
		cc.inflight.Reset()
	}
	r.dispatch()
}

// noteFailure counts one connection (or mux session) failure. Under a
// Recovery policy it also opens the backoff window and, after
// faults.FallbackAfter consecutive failures, steps down the protocol ladder,
// which starts the count afresh.
func (r *Robot) noteFailure() {
	r.result.Errors++
	if !r.cfg.Recovery {
		return
	}
	r.consecFails++
	b := faults.Backoff(r.consecFails)
	r.backoffUntil = r.sim.Now().Add(b)
	r.cfg.Obs.RetryBackoff(b, r.consecFails)
	if r.consecFails >= faults.FallbackAfter && r.stepDown() {
		r.consecFails = 0
	}
}

// requeue puts an unanswered request back on the queue as a retry and
// reports whether it did; under a Recovery policy the first requeue of a
// failure streak opens the recovery interval. A request that is
// unsafe to replay, or — when charge is set — one faults.RetryBudget no
// longer covers, is dropped permanently instead of retried forever; its
// span stays open-ended, which the waterfall marks abandoned. charge
// is clear for the streams a mux session failure takes down: that is
// ONE fault event no matter how many streams it holds, and charging a
// 40-stream session failure 40 budget units would exhaust the budget
// before the backoff/fallback ladder — which already bounds session
// redials — ever engaged. The caller dispatches.
func (r *Robot) requeue(it workItem, charge bool) bool {
	if r.cfg.Recovery && !r.recovering {
		r.recovering = true
		r.recoverFrom = r.sim.Now()
	}
	if r.cfg.Recovery && (!idempotent(it.method) || (charge && !faults.Allow(r.retryCharge))) {
		r.issued--
		r.result.RequestsFailed++
		r.result.Aborted = true
		if it.isHTML {
			r.htmlPending = false
		}
		return false
	}
	it.retried = true
	r.result.Retried++
	if charge {
		r.retryCharge++
	}
	r.issued-- // it will be re-issued
	// The original span stays open-ended; the retry is its own span.
	it.span = r.cfg.Obs.SpanQueued(it.method, it.path, true)
	r.queue.Push(it)
	if it.isHTML {
		// The page will be re-received from the start; discard the
		// half-parsed tokenizer state. Already-discovered links stay
		// deduplicated by r.enqueued.
		r.extractor.Arm(r.index)
	}
	return true
}

// idempotent reports whether a request may be transparently re-issued
// after a connection failure (RFC 2616 §8.1.4: methods safe to replay).
func idempotent(method string) bool {
	return method == "GET" || method == "HEAD"
}

// clientConn is one TCP connection of the robot, and its handler.
type clientConn struct {
	r        *Robot
	conn     *tcpsim.Conn
	parser   httpmsg.ResponseParser
	inflight sim.Queue[workItem]

	watchdog  sim.TimerHandle
	sentFirst bool
	dead      bool
	// unflushed holds the spans of buffered pipelined requests; their
	// span-written instant is the flush, not the enqueue.
	unflushed []obs.SpanID
}

// enqueue appends the request to the output buffer (the corked tail of
// the connection's send buffer, under outBuffer's policy). A connection
// that does not pipeline flushes every request, and ExplicitFirstFlush
// sends the first (the page) at once: no request can follow it until
// the page arrives.
func (cc *clientConn) enqueue(it workItem) {
	r := cc.r
	req := r.buildItemRequest(it)
	cc.conn.Cork(func(b []byte) []byte { return req.AppendTo(b) })
	cc.inflight.Push(it)
	cc.parser.PushExpectation(it.method)
	r.issued++
	pipelines := r.pipelines()
	if !pipelines {
		r.cfg.Obs.SpanWritten(it.span, cc.conn.ObsID())
	} else if it.span != 0 {
		cc.unflushed = append(cc.unflushed, it.span)
	}

	first := !cc.sentFirst
	cc.sentFirst = true
	cc.conn.Settle(r.outBuffer(), !pipelines || first && r.cfg.ExplicitFirstFlush)
}

// outBuffer is the pipelining output buffer: BufferSize and FlushTimeout.
func (r *Robot) outBuffer() tcpsim.Buffer {
	return tcpsim.Buffer{Size: r.cfg.BufferSize, Timeout: r.cfg.FlushTimeout}
}

// Flushing implements tcpsim.Flusher: the buffered requests are written
// as they leave, and the watchdog starts on them.
func (cc *clientConn) Flushing(c *tcpsim.Conn) {
	for _, id := range cc.unflushed {
		cc.r.cfg.Obs.SpanWritten(id, c.ObsID())
	}
	cc.unflushed = cc.unflushed[:0]
	cc.armWatchdog()
}

// armWatchdog (re)starts the progress watchdog: with requests
// outstanding, faults.RequestTimeout of silence means the connection is
// presumed dead (stalled server, blackholed path) and is aborted so the
// requests can be re-issued. It is re-armed on every data arrival, so
// slow-but-progressing transfers (pipelined responses trickling over a
// modem link) never trip it.
func (cc *clientConn) armWatchdog() {
	if !cc.r.cfg.Recovery {
		return
	}
	if cc.dead || cc.inflight.Len() == 0 {
		cc.stopWatchdog()
		return
	}
	// Rescheduling the live watchdog or arming a fresh one both consume
	// one sequence number, exactly like the old stop-then-schedule pair,
	// keeping event order byte-identical. This runs on every data
	// arrival, so it must not allocate.
	if !cc.watchdog.Reschedule(faults.RequestTimeout) {
		cc.watchdog = cc.r.sim.ScheduleArg(faults.RequestTimeout, watchdogFire, cc)
	}
}

// Package-level timer thunks keep the per-event path allocation-free.
func watchdogFire(a any)  { a.(*clientConn).onWatchdog() }
func robotDispatch(a any) { a.(*Robot).dispatch() }

func (cc *clientConn) onWatchdog() {
	// Parallel connections share the link: one of them starving while
	// the others transfer is contention, not a stall. Only declare
	// the connection dead once the whole robot has been silent for
	// the timeout.
	if since := cc.r.sim.Now().Sub(cc.r.lastData); since < faults.RequestTimeout {
		cc.watchdog = cc.r.sim.ScheduleArg(faults.RequestTimeout-since, watchdogFire, cc)
		return
	}
	cc.r.result.Timeouts++
	cc.r.cfg.Obs.ClientTimeout(cc.conn.ObsID(), faults.RequestTimeout)
	cc.conn.Abort()
	cc.r.failConn(cc, true)
}

func (cc *clientConn) stopWatchdog() {
	cc.watchdog.Stop()
}

// OnConnect implements tcpsim.Handler.
func (cc *clientConn) OnConnect(c *tcpsim.Conn) {}

// OnData implements tcpsim.Handler.
func (cc *clientConn) OnData(c *tcpsim.Conn, data []byte) {
	cc.r.lastData = cc.r.sim.Now()
	if cc.inflight.Len() > 0 {
		cc.r.cfg.Obs.SpanFirstByte(cc.inflight.Items()[0].span)
	}
	resps, err := cc.parser.Feed(data)
	if err != nil {
		cc.conn.Abort()
		cc.r.failConn(cc, true)
		return
	}
	cc.deliver(resps)
	cc.armWatchdog() // progress: restart the silence clock
}

// deliver pops completed responses and schedules their CPU handling.
func (cc *clientConn) deliver(resps []*httpmsg.Response) {
	r := cc.r
	for _, resp := range resps {
		if cc.inflight.Len() == 0 {
			break
		}
		it := cc.inflight.Pop()
		r.cfg.Obs.SpanDone(it.span, resp.StatusCode, int64(resp.BodyLen))

		connClose := httpmsg.TokenListContains(resp.Header.Get("Connection"), "close")
		reusable := r.cfg.KeepAlive && !connClose
		if !reusable && cc.inflight.Len() == 0 && !cc.dead {
			// HTTP/1.0 style: this connection is spent.
			cc.dead = true
			cc.conn.CloseWrite()
		}

		r.handoffs.Push(handoff{it, resp})
		r.cpu.Run(r.cfg.PerRequestCPU, handleNext, r)
	}
}

// OnPeerClose implements tcpsim.Handler.
func (cc *clientConn) OnPeerClose(c *tcpsim.Conn) {
	// The server finished sending: a trailing until-close body completes
	// here.
	resp, err := cc.parser.CloseEOF()
	if err == nil && resp != nil && cc.inflight.Len() > 0 {
		cc.deliver([]*httpmsg.Response{resp})
	}
	truncated := err != nil
	if !cc.dead {
		cc.conn.CloseWrite()
	}
	cc.r.failConn(cc, truncated)
}

// OnError implements tcpsim.Handler.
func (cc *clientConn) OnError(c *tcpsim.Conn, err error) {
	cc.r.failConn(cc, true)
}

// OnClose implements tcpsim.Handler.
func (cc *clientConn) OnClose(c *tcpsim.Conn) {
	cc.r.failConn(cc, false)
}

// contentRangeTotal parses the total length out of "bytes lo-hi/total".
func contentRangeTotal(v string) int {
	slash := strings.IndexByte(v, '/')
	if slash < 0 {
		return 0
	}
	total := 0
	for _, c := range v[slash+1:] {
		if c < '0' || c > '9' {
			return 0
		}
		total = total*10 + int(c-'0')
	}
	return total
}

// RevalidationRequests returns the marshaled conditional GET requests the
// tuned robot would pipeline to revalidate a cached page (page first,
// then its images in document order). It exists for offline analyses of
// request redundancy, such as the paper's compact-wire-representation
// estimate.
func RevalidationRequests(cache *Cache) [][]byte {
	page, ok := cache.Get("/")
	if !ok {
		return nil
	}
	r := &Robot{cfg: ModeHTTP11Pipelined.Config(), cache: cache}
	out := [][]byte{
		r.buildItemRequest(workItem{method: "GET", path: "/", conditional: true, isHTML: true}).Marshal(),
	}
	for _, link := range page.Links {
		out = append(out, r.buildItemRequest(workItem{method: "GET", path: link, conditional: true}).Marshal())
	}
	return out
}
