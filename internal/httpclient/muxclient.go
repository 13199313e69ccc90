package httpclient

import (
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/httpmsg"
	"repro/internal/mux"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// muxStream is the client-side state of one mux stream: either a
// request the robot opened itself, or a server push.
type muxStream struct {
	it        workItem // valid once claimed
	claimed   bool     // a work item owns this stream
	pushed    bool     // server-initiated (PUSH_PROMISE)
	cancelled bool     // we RST_STREAMed a push we didn't want
	delivered bool     // response handed to handleResponse
	done      bool     // endStream seen

	status  int
	header  httpmsg.Header
	keep    bool // wantsBody(header): body is retained, not just counted
	body    []byte
	bodyLen int
	span    obs.SpanID // pushed-span timeline row (0 when not pushed)
	path    string     // :path of a push, before any item claims it

	// lastData is the last time this stream was opened or promised or
	// made progress (headers or body), and rxMark the session's received
	// DATA count at that moment. The per-stream watchdog combines them to
	// find individually wedged streams on an otherwise healthy
	// session: silence alone is normal on a slow shared link (a fair
	// round-robin scheduler can take many seconds per cycle), but a
	// whole window of traffic reaching OTHER streams while this one
	// got nothing means the server has abandoned it.
	lastData sim.Time
	rxMark   int64
}

// muxConn is the robot's single framed multiplexed connection
// (ModeMux / ModeMuxPush), and its handler. Unlike clientConn there is
// no pipelining buffer and no flush timer: the session's scheduler owns
// interleaving. Recovery (when armed) runs at two granularities: a
// per-stream watchdog tears down individually silent streams with
// RST_STREAM and re-issues them on the same session, and a
// whole-session failure — abort, GOAWAY, or total silence — re-dials
// the connection and replays incomplete streams, degrading to
// HTTP/1.1 pipelining after repeated failures.
type muxConn struct {
	r        *Robot
	conn     *tcpsim.Conn
	sess     *mux.Session
	dead     bool
	closing  bool // we finished and sent FIN; peer close is expected
	promised map[string]*mux.Stream
	watchdog sim.TimerHandle
	rxTotal  int64 // DATA payload bytes received, for per-stream progress marks
}

// dialMux opens the mux connection and performs the session handshake
// (connection preface + SETTINGS, advertising push when configured).
func (r *Robot) dialMux() *muxConn {
	mc := &muxConn{r: r, promised: make(map[string]*mux.Stream)}
	r.mux = mc
	// muxDispatch batches requests; the frame scheduler batches the rest.
	opts := tcpsim.Options{NoDelay: true, InitialCwndSegments: r.cfg.InitialCwndSegments}
	mc.conn = r.host.Dial(r.serverHost, r.serverPort, opts, mc)
	r.result.SocketsUsed++
	r.result.MaxSimultaneousConns = max(r.result.MaxSimultaneousConns, r.liveCount())
	sess := mux.NewClient(func(b []byte) { mc.conn.Write(b) })
	sess.EnablePush = r.cfg.Mode == ModeMuxPush
	sess.FIFO = r.cfg.MuxFIFO
	sess.OnHeaders = mc.onHeaders
	sess.OnData = mc.onStreamData
	sess.OnPushPromise = mc.onPushPromise
	sess.OnRstStream = mc.onRstStream
	sess.OnGoaway = mc.onGoaway
	sess.OnError = mc.onSessionError
	if b := r.cfg.Obs; b != nil {
		id := mc.conn.ObsID()
		sess.OnFrameSent = func(t mux.FrameType, stream uint32, n int) {
			b.MuxFrame(id, t.String(), stream, n)
		}
		sess.OnStall = func(st *mux.Stream, conn bool) {
			var sid uint32
			if st != nil {
				sid = st.ID
			}
			b.FlowStall(id, sid, conn)
		}
	}
	mc.sess = sess
	sess.Start()
	return mc
}

// muxDispatch drains the robot's queue onto the mux connection: one
// stream per work item, except items a server push already answered,
// corked into one write that leaves once the queue is empty.
func (r *Robot) muxDispatch() {
	mc := r.mux
	if mc == nil || mc.dead {
		if mc != nil && mc.dead {
			return // a redial is pending via muxFail → dispatch
		}
		mc = r.dialMux()
	}
	mc.sess.Cork()
	for r.queue.Len() > 0 {
		mc.request(r.queue.Pop())
	}
	mc.sess.Uncork()
}

// request issues one work item: claim a matching outstanding push
// promise, or open a stream of our own.
func (mc *muxConn) request(it workItem) {
	r := mc.r
	if st, ok := mc.promised[it.path]; ok && it.method == "GET" && !it.conditional {
		// The server already volunteered this object: adopt the pushed
		// stream instead of asking again.
		delete(mc.promised, it.path)
		ms := st.UserData.(*muxStream)
		ms.claimed = true
		ms.it = it
		r.issued++
		r.result.PushUsed++
		if ms.done {
			mc.complete(ms)
		}
		return
	}
	req := r.buildItemRequest(it)
	st := mc.sess.OpenStream(muxFields(req, r.serverHost), true, 0)
	st.UserData = &muxStream{it: it, claimed: true, lastData: r.sim.Now(), rxMark: mc.rxTotal}
	r.issued++
	r.cfg.Obs.SpanWritten(it.span, mc.conn.ObsID())
	mc.armWatchdog()
}

// muxFields lowers an HTTP/1.x request to a mux header block:
// pseudo-headers first, then the style's fields minus the
// connection-level ones the framing layer owns.
func muxFields(req *httpmsg.Request, authority string) []mux.Field {
	fields := []mux.Field{
		{Name: ":method", Value: req.Method},
		{Name: ":path", Value: req.Target},
		{Name: ":authority", Value: authority},
	}
	for _, f := range req.Header.Fields() {
		name := mux.LowerName(f.Name)
		if name == "host" || name == "connection" {
			continue
		}
		fields = append(fields, mux.Field{Name: name, Value: f.Value})
	}
	return fields
}

// OnConnect implements tcpsim.Handler.
func (mc *muxConn) OnConnect(c *tcpsim.Conn) {}

// OnData implements tcpsim.Handler.
func (mc *muxConn) OnData(c *tcpsim.Conn, data []byte) {
	mc.r.lastData = mc.r.sim.Now()
	mc.sess.Feed(data)
	mc.armWatchdog()
}

func (mc *muxConn) onHeaders(st *mux.Stream, fields []mux.Field, end bool) {
	ms, ok := st.UserData.(*muxStream)
	if !ok {
		return
	}
	ms.lastData = mc.r.sim.Now()
	ms.rxMark = mc.rxTotal
	for _, f := range fields {
		switch {
		case f.Name == ":status":
			ms.status, _ = strconv.Atoi(f.Value)
		case !strings.HasPrefix(f.Name, ":"):
			ms.header.Add(f.Name, f.Value)
		}
	}
	ms.keep = wantsBody(&ms.header)
	if ms.pushed {
		mc.r.cfg.Obs.SpanFirstByte(ms.span)
	} else {
		mc.r.cfg.Obs.SpanFirstByte(ms.it.span)
	}
	if end {
		ms.done = true
		if ms.claimed {
			mc.complete(ms)
		}
	}
}

func (mc *muxConn) onStreamData(st *mux.Stream, p []byte, end bool) {
	r := mc.r
	mc.rxTotal += int64(len(p))
	ms, ok := st.UserData.(*muxStream)
	if !ok {
		return
	}
	ms.lastData = r.sim.Now()
	ms.rxMark = mc.rxTotal
	if ms.cancelled {
		// DATA that raced our RST_STREAM: delivered, never wanted. A
		// cancelled push is push waste; a request stream the watchdog
		// tore down is plain retry waste.
		if ms.pushed {
			r.result.PushWastedBytes += int64(len(p))
		} else {
			r.result.WastedBytes += int64(len(p))
		}
		return
	}
	ms.bodyLen += len(p)
	if ms.keep {
		ms.body = append(ms.body, p...)
	}
	if ms.claimed && ms.it.isHTML && ms.status == 200 {
		// Parse the page as it streams so inline objects start
		// (or claim their pushes) before the document completes.
		r.discoverLinks(p)
	}
	if end {
		ms.done = true
		if ms.claimed {
			mc.complete(ms)
		}
	}
}

// complete hands a finished stream's response to the shared
// HTTP/1.x response handler after the per-response CPU charge.
func (mc *muxConn) complete(ms *muxStream) {
	r := mc.r
	ms.delivered = true
	resp := &httpmsg.Response{
		Proto:      httpmsg.Proto11,
		StatusCode: ms.status,
		Reason:     httpmsg.StatusText(ms.status),
		Header:     ms.header,
		Body:       ms.body,
		BodyLen:    ms.bodyLen,
	}
	it := ms.it
	r.cfg.Obs.SpanDone(it.span, ms.status, int64(ms.bodyLen))
	if ms.pushed {
		r.cfg.Obs.SpanDone(ms.span, ms.status, int64(ms.bodyLen))
	}
	r.handoffs.Push(handoff{it, resp})
	r.cpu.Run(r.cfg.PerRequestCPU, handleNext, r)
}

// onPushPromise accepts or cancels a server push. A promise the cache
// can already satisfy is refused immediately (the client would rather
// revalidate); anything pushed after the refusal is waste.
func (mc *muxConn) onPushPromise(parent, promised *mux.Stream, fields []mux.Field) {
	r := mc.r
	path := ""
	for _, f := range fields {
		if f.Name == ":path" {
			path = f.Value
		}
	}
	ms := &muxStream{pushed: true, path: path, lastData: r.sim.Now(), rxMark: mc.rxTotal}
	promised.UserData = ms
	ms.span = r.cfg.Obs.SpanPushed("GET", path, mc.conn.ObsID())
	if _, ok := r.cache.Get(path); ok {
		ms.cancelled = true
		mc.sess.RstStream(promised)
		return
	}
	mc.promised[path] = promised
}

// onRstStream handles a peer RST_STREAM. A pushed promise is
// invalidated — the promise entry is dropped and whatever body it
// delivered is waste, so a later request for the object goes to the
// server — and a claimed request stream is re-issued on this same
// session, budget and idempotency permitting.
func (mc *muxConn) onRstStream(st *mux.Stream) {
	r := mc.r
	ms, ok := st.UserData.(*muxStream)
	if !ok || ms.cancelled || ms.delivered {
		return // a reset racing our own teardown needs no second answer
	}
	if ms.pushed && !ms.claimed {
		r.result.StreamsReset++
		r.cfg.Obs.StreamReset(mc.conn.ObsID(), st.ID, st.ResetCode.String())
		r.result.PushWastedBytes += int64(ms.bodyLen)
		ms.cancelled = true
		delete(mc.promised, ms.path)
		return
	}
	if ms.claimed {
		r.result.StreamsReset++
		r.cfg.Obs.StreamReset(mc.conn.ObsID(), st.ID, st.ResetCode.String())
		mc.requeueStream(ms, true)
		r.dispatch()
	}
}

// onGoaway records the peer's session-close announcement. The close
// itself arrives as a transport event (the server tears the
// connection down right after), so stream replay happens on that
// path; a GOAWAY the peer never follows up on is cleared by the
// watchdog.
func (mc *muxConn) onGoaway(last uint32, code mux.ErrCode) {
	mc.r.result.Goaways++
	mc.r.cfg.Obs.Goaway(mc.conn.ObsID(), last, code.String())
}

// requeueStream releases a torn-down stream's work item back onto the
// robot's queue via Robot.requeue. chargeBudget is set for per-stream
// teardowns (a peer RST_STREAM, a watchdog reset — individual retries)
// and clear for a whole-session failure. The caller dispatches.
func (mc *muxConn) requeueStream(ms *muxStream, chargeBudget bool) {
	r := mc.r
	r.result.WastedBytes += int64(ms.bodyLen)
	ms.claimed = false
	ms.cancelled = true // late DATA racing the reset is waste
	r.requeue(ms.it, chargeBudget)
}

// outstanding reports whether any claimed stream still awaits its
// response.
func (mc *muxConn) outstanding() bool {
	for _, st := range mc.sess.Streams() {
		ms, ok := st.UserData.(*muxStream)
		if ok && ms.claimed && !ms.delivered && !st.ResetSent && !st.ResetRecv {
			return true
		}
	}
	return false
}

// armWatchdog keeps the session watchdog ticking. Unlike the HTTP/1.x
// connection's (which restarts its clock on every arrival and so only
// fires on total silence), the mux watchdog is a periodic sampler: it
// must catch a single stream starving while the rest of the session
// streams along, so it fires every faults.RequestTimeout regardless of
// session-wide progress and onWatchdog compares each stream's own
// silence against the deadline. It runs on every data arrival, so the
// already-armed path must not allocate, and it consumes sim sequence
// numbers only when a Recovery policy is armed — fault-free runs stay
// byte-identical.
func (mc *muxConn) armWatchdog() {
	if !mc.r.cfg.Recovery {
		return
	}
	if mc.dead || mc.closing || !mc.outstanding() {
		mc.watchdog.Stop()
		return
	}
	if !mc.watchdog.Active() {
		mc.watchdog = mc.r.sim.ScheduleArg(faults.RequestTimeout, muxWatchdogFire, mc)
	}
}

func muxWatchdogFire(a any) { a.(*muxConn).onWatchdog() }

// onWatchdog classifies faults.RequestTimeout of silence. If the session as
// a whole made recent progress, only streams that are individually
// silent (a per-stream stall fault) are torn down with RST_STREAM and
// re-issued on this same session. A fully silent session is first
// tested for a provable flow-control deadlock — either sender wedged
// on an exhausted window that will never refill, named stream and all
// — and then aborted so recovery can redial.
func (mc *muxConn) onWatchdog() {
	r := mc.r
	if mc.dead || mc.closing {
		return
	}
	now := r.sim.Now()
	if since := now.Sub(r.lastData); since < faults.RequestTimeout {
		requeued := false
		for _, st := range mc.sess.Streams() {
			ms, ok := st.UserData.(*muxStream)
			if !ok || !ms.claimed || ms.delivered || st.ResetSent || st.ResetRecv {
				continue
			}
			if now.Sub(ms.lastData) < faults.RequestTimeout {
				continue
			}
			// Silence alone is not a stall: on a slow link a fair
			// round-robin cycle over many streams can exceed the
			// deadline. Only tear the stream down once a full
			// flow-control window of traffic reached other streams
			// while this one got nothing — a working server would have
			// scheduled it inside that much data.
			if mc.rxTotal-ms.rxMark < int64(mux.DefaultInitialWindow) {
				continue
			}
			r.result.StreamsReset++
			r.cfg.Obs.StreamReset(mc.conn.ObsID(), st.ID, "watchdog")
			mc.sess.RstStreamCode(st, mux.ErrCodeCancel)
			mc.requeueStream(ms, true)
			requeued = true
		}
		if requeued {
			r.dispatch()
		}
		mc.armWatchdog()
		return
	}
	if st, ok := mc.sess.PeerDeadlock(); ok {
		r.result.DeadlocksDetected++
		r.cfg.Obs.Deadlock(mc.conn.ObsID(), st.ID, "peer-starved")
	} else if st, conn, ok := mc.sess.FlowDeadlock(); ok {
		r.result.DeadlocksDetected++
		which := "stream-window"
		if conn {
			which = "conn-window"
		}
		r.cfg.Obs.Deadlock(mc.conn.ObsID(), st.ID, which)
	} else {
		r.result.Timeouts++
		r.cfg.Obs.ClientTimeout(mc.conn.ObsID(), faults.RequestTimeout)
	}
	mc.conn.Abort()
	r.muxFail(mc)
}

func (mc *muxConn) onSessionError(err error) {
	if !mc.dead {
		mc.conn.Abort()
		mc.r.muxFail(mc)
	}
}

// OnPeerClose implements tcpsim.Handler.
func (mc *muxConn) OnPeerClose(c *tcpsim.Conn) {
	if mc.closing || mc.r.finished {
		return // our FIN went first; this is the server's half closing
	}
	err := mc.sess.CloseCheck()
	if !mc.dead {
		mc.conn.CloseWrite()
	}
	mc.r.muxFailErr(mc, err != nil)
}

// OnError implements tcpsim.Handler.
func (mc *muxConn) OnError(c *tcpsim.Conn, err error) {
	mc.r.muxFail(mc)
}

// OnClose implements tcpsim.Handler.
func (mc *muxConn) OnClose(c *tcpsim.Conn) {
	if !mc.closing {
		mc.r.muxFail(mc)
	}
}

// finish is the graceful end of the fetch: account pushes that were
// never claimed, fold the session's counters into the result, and
// half-close.
func (mc *muxConn) finish() {
	if mc.closing || mc.dead {
		return
	}
	mc.closing = true
	mc.watchdog.Stop()
	for _, st := range mc.sess.Streams() {
		ms, ok := st.UserData.(*muxStream)
		if !ok {
			continue
		}
		if ms.pushed && !ms.claimed && !ms.cancelled {
			// Promised, delivered (fully or partly), never wanted.
			mc.r.result.PushWastedBytes += int64(ms.bodyLen)
		}
	}
	mc.fillStats()
	mc.conn.CloseWrite()
}

// fillStats folds the session counters into the fetch result. Called
// exactly once per session (graceful finish or failure); a redialled
// session accumulates on top. GOAWAYs this side sent (strict-validator
// rejections of server garbage) add to the peer-announced ones counted
// in onGoaway.
func (mc *muxConn) fillStats() {
	st := mc.sess.Stats
	mc.r.result.StreamsOpened += st.StreamsOpened
	mc.r.result.PushPromised += st.PushPromised
	mc.r.result.HeaderBytesSaved += st.HeaderBytesSaved
	mc.r.result.FlowControlStalls += st.FlowControlStalls
	mc.r.result.Goaways += st.GoawaysSent
}

// muxFail retires a failed mux connection: undelivered claimed items
// are re-queued (a fresh session will re-issue them), partial bodies
// and orphaned pushes become waste, and dispatch redials — or, once
// noteFailure has stepped down the ladder, continues the fetch over
// HTTP/1.1 pipelining.
func (r *Robot) muxFail(mc *muxConn) { r.muxFailErr(mc, true) }

func (r *Robot) muxFailErr(mc *muxConn, isError bool) {
	if mc.dead || mc.closing {
		return
	}
	mc.dead = true
	mc.watchdog.Stop()
	if r.mux == mc {
		r.mux = nil
	}
	if isError {
		r.noteFailure()
	}
	mc.fillStats()
	for _, st := range mc.sess.Streams() {
		ms, ok := st.UserData.(*muxStream)
		if !ok || !ms.claimed || ms.delivered {
			continue
		}
		mc.requeueStream(ms, false)
	}
	r.dispatch()
}
