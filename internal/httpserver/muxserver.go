package httpserver

import (
	"strconv"

	"repro/internal/httpmsg"
	"repro/internal/mux"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// muxJob is one response the mux session owes: a client request's, or
// a push the server volunteered. Both are charged PerRequestCPU
// through the host's single CPU, one at a time, like the HTTP/1.x
// path.
type muxJob struct {
	st     *mux.Stream
	req    *httpmsg.Request
	pushed bool
}

// muxServerConn runs one framed multiplexed connection: requests
// arrive as HEADERS, responses leave as HEADERS+DATA interleaved by
// the session's priority scheduler, and — when the client advertised
// push — the page's inline objects are promised and pushed ahead of
// the client asking.
type muxServerConn struct {
	sc   *serverConn
	sess *mux.Session

	pending    sim.Queue[muxJob]
	processing bool
	current    muxJob // the job the CPU is working on, while processing
	served     int    // client-requested responses completed on this connection
}

// startMux hands the connection to a mux session. Response bytes are
// counted in the Send hook (the session owns all marshalling), so the
// legacy BytesOut accounting in serve() is never double-applied. The
// frames go into the connection's output buffer, the HTTP/1.x path's,
// with the CPU as the server's queued work: what a response or a
// WINDOW_UPDATE produced waits while a response is being computed and
// goes out once none is. Requests waiting for the CPU do not hold it
// back, as they do on HTTP/1.x: the client would then handle the whole
// batch of responses after the last arrived, time that blame cannot
// yet attribute.
func (sc *serverConn) startMux() {
	srv := sc.srv
	msc := &muxServerConn{sc: sc}
	sess := mux.NewServer(func(b []byte) {
		srv.stats.BytesOut += int64(len(b))
		sc.conn.CorkBytes(b)
	})
	sess.FIFO = srv.cfg.MuxFIFO
	sess.OnHeaders = msc.onHeaders
	sess.OnError = func(err error) {
		srv.stats.ProtocolErrors++
		sc.close()
	}
	sess.OnStall = func(st *mux.Stream, conn bool) {
		srv.stats.FlowControlStalls++
		if b := srv.cfg.Obs; b != nil {
			var sid uint32
			if st != nil {
				sid = st.ID
			}
			b.FlowStall(sc.conn.ObsID(), sid, conn)
		}
	}
	if b := srv.cfg.Obs; b != nil {
		id := sc.conn.ObsID()
		sess.OnFrameSent = func(t mux.FrameType, stream uint32, n int) {
			b.MuxFrame(id, t.String(), stream, n)
		}
	}
	sc.mux = msc
	msc.sess = sess
	sess.Start()
}

// onHeaders lifts a request header block back into an httpmsg.Request
// so the HTTP/1.x response logic (conditional GET, ranges, deflate,
// burst) applies unchanged.
func (msc *muxServerConn) onHeaders(st *mux.Stream, fields []mux.Field, end bool) {
	req := &httpmsg.Request{Proto: httpmsg.Proto11}
	for _, f := range fields {
		switch f.Name {
		case ":method":
			req.Method = f.Value
		case ":path":
			req.Target = f.Value
		case ":authority":
			req.Header.Add("Host", f.Value)
		default:
			req.Header.Add(f.Name, f.Value)
		}
	}
	if b := msc.sc.srv.cfg.Obs; b != nil {
		b.ServerRecv(msc.sc.conn.ObsID(), req.Target)
	}
	msc.pending.Push(muxJob{st: st, req: req})
	msc.processNext()
}

// processNext serves queued jobs one at a time through the host CPU,
// mirroring serverConn.processNext.
func (msc *muxServerConn) processNext() {
	if msc.processing || msc.sc.closing || msc.pending.Len() == 0 {
		return
	}
	msc.current = msc.pending.Pop()
	msc.processing = true
	srv := msc.sc.srv
	if !msc.current.pushed {
		srv.stats.Requests++
	}
	srv.cpu.Run(srv.cfg.PerRequestCPU, serveCurrent, msc)
}

// serveCurrent runs when the CPU has done the current job's work.
func serveCurrent(a any) {
	msc := a.(*muxServerConn)
	msc.processing = false
	if msc.sc.conn.State() == tcpsim.StateClosed {
		return
	}
	msc.serve(msc.current)
	msc.sc.conn.Settle(tcpsim.ServerBuffer, true)
	msc.processNext()
	msc.maybeClose()
}

// feed hands arriving bytes to the session.
func (msc *muxServerConn) feed(data []byte) {
	msc.sess.Feed(data)
	msc.sc.conn.Settle(tcpsim.ServerBuffer, !msc.processing)
}

func (msc *muxServerConn) serve(job muxJob) {
	srv := msc.sc.srv
	resp := srv.respond(job.req, new(httpmsg.Response))
	srv.stats.Responses++
	if b := srv.cfg.Obs; b != nil {
		b.ServerSend(msc.sc.conn.ObsID(), job.req.Target, resp.StatusCode, len(resp.Body))
	}
	if (srv.cfg.Faults.Any() || srv.cfg.MuxFaults.Any()) && msc.injectFault(job, resp) {
		return
	}
	// Server push: promise every inline object of a just-requested page
	// before its response, so the promises reach the client ahead of
	// the HTML parse (and ahead of its own requests). A 304 pushes too:
	// the client may hold the page but not its contents.
	if !job.pushed && msc.sess.EnablePush && job.req.Method == "GET" &&
		(resp.StatusCode == 200 || resp.StatusCode == 304) {
		for _, path := range srv.site.InlineLinks(job.req.Target) {
			msc.push(job.st, path)
		}
	}
	msc.writeResponse(job.st, job.req.Method, resp)
	msc.afterResponse(job)
}

// afterResponse applies the scripted early-close limit on framed
// connections: after the Nth client-requested response, announce the
// close with GOAWAY and tear the connection down in the scripted
// style, pushes and pipelined streams be damned — the framed
// equivalent of the HTTP/1.x early-close fault.
func (msc *muxServerConn) afterResponse(job muxJob) {
	srv := msc.sc.srv
	limit := srv.cfg.Faults.CloseAfterResponses
	if limit <= 0 || job.pushed || msc.sc.closing {
		return
	}
	msc.served++
	if msc.served < limit {
		return
	}
	srv.stats.EarlyCloses++
	srv.stats.FaultsInjected++
	if b := srv.cfg.Obs; b != nil {
		b.Fault(msc.sc.conn.ObsID(), "early-close", int64(msc.served))
	}
	msc.sess.Goaway(mux.ErrCodeNo)
	msc.sc.close()
}

// injectFault fires the scripted one-shot faults against a framed
// response, both the HTTP/1.x server scripts mapped onto framing
// semantics and the mux-specific scripts. It reports whether the
// fault consumed the response. Ordinals are counted server-wide
// (muxSeq for client-requested responses, pushSeq for pushes) so each
// one-shot fault fires exactly once per run even across redials.
func (msc *muxServerConn) injectFault(job muxJob, resp *httpmsg.Response) bool {
	srv := msc.sc.srv
	sf, mf := srv.cfg.Faults, srv.cfg.MuxFaults
	fire := func(kind string, seq int) {
		srv.stats.FaultsInjected++
		if b := srv.cfg.Obs; b != nil {
			b.Fault(msc.sc.conn.ObsID(), kind, int64(seq))
		}
	}
	body := resp.Body
	if job.req.Method == "HEAD" {
		body = nil
	}

	if job.pushed {
		if mf.AbortPush <= 0 {
			return false
		}
		srv.pushSeq++
		if srv.pushSeq != mf.AbortPush {
			return false
		}
		// Push-then-abort: the promise went out, the body starts, and
		// then the server thinks better of it and resets its own push.
		msc.writePartial(job.st, resp, body[:min(mf.AbortPushBytes, len(body))])
		msc.sess.RstStreamCode(job.st, mux.ErrCodeInternal)
		fire("mux-push-abort", srv.pushSeq)
		return true
	}

	srv.muxSeq++
	seq := srv.muxSeq
	switch {
	case mf.StallSettings > 0 && seq == mf.StallSettings:
		// Emit a SETTINGS frame where the response should be, then
		// wedge the whole connection: nothing further is sent and
		// incoming frames (acks included) are never processed again.
		p := []byte{
			0, byte(mux.SettingInitialWindowSize),
			0, 0, byte(mux.DefaultInitialWindow >> 8), byte(mux.DefaultInitialWindow & 0xff)}
		msc.writeRaw(mux.AppendFrame(nil, mux.FrameSettings, 0, 0, p))
		fire("mux-stall", seq)
		msc.sc.stalled = true
		return true
	case sf.StallResponse > 0 && seq == sf.StallResponse:
		// Framed mapping of the HTTP/1.x stall: this one stream gets
		// headers and then silence forever, while every other stream
		// on the session keeps being served. Only the client's
		// per-stream watchdog clears it.
		msc.writePartial(job.st, resp, nil)
		fire("stall", seq)
		return true
	case mf.GarbageFrame > 0 && seq == mf.GarbageFrame:
		// A frame of unknown type on a stream nobody opened, ahead of
		// the real response: the client's strict validator must
		// reject it and close the session with GOAWAY.
		msc.writeRaw(mux.AppendFrame(nil, mux.FrameType(0xb), 0, 0xdead, []byte{0xba, 0xad}))
		fire("mux-garbage", seq)
		return false // the response itself is still served
	case mf.RstStream > 0 && seq == mf.RstStream:
		// Mid-stream RST: partial body, then RST_STREAM(INTERNAL_ERROR).
		msc.writePartial(job.st, resp, body[:min(mf.RstStreamBytes, len(body))])
		msc.sess.RstStreamCode(job.st, mux.ErrCodeInternal)
		fire("mux-rst", seq)
		return true
	case mf.TruncateFrame > 0 && seq == mf.TruncateFrame:
		// Mid-frame truncation: headers go out through the session,
		// then a hand-marshalled DATA frame is cut short of its own
		// length field and the connection fully closes — the client's
		// frame reader must flag the trailing bytes.
		msc.sess.WriteHeaders(job.st, responseFields(resp, len(body)), false)
		frame := mux.AppendFrame(nil, mux.FrameData, 0, job.st.ID, body[:min(mf.TruncateBytes, len(body))])
		msc.writeRaw(frame[:len(frame)-3])
		fire("mux-truncate", seq)
		msc.sc.closing = true
		msc.sc.conn.Close()
		return true
	case sf.TruncateResponse > 0 && seq == sf.TruncateResponse:
		// Stream-level truncation (the HTTP/1.x script on framing):
		// clean frames, but the stream never ends and the connection
		// fully closes under it.
		msc.writePartial(job.st, resp, body[:min(sf.TruncateBodyBytes, len(body))])
		fire("truncate", seq)
		msc.sc.closing = true
		msc.sc.conn.Close()
		return true
	case sf.AbortResponse > 0 && seq == sf.AbortResponse:
		msc.sc.conn.Flush()
		fire("abort", seq)
		msc.sc.closing = true
		msc.sc.conn.Abort()
		return true
	}
	return false
}

// writeRaw puts hand-marshalled (deliberately broken) frame bytes on
// the wire behind the session's back, with the same BytesOut
// accounting as the session's Send hook.
func (msc *muxServerConn) writeRaw(b []byte) {
	msc.sc.srv.stats.BytesOut += int64(len(b))
	msc.sc.conn.Write(b)
}

// writePartial serves headers and a body prefix without ever ending
// the stream — the shared shape of the truncation, stall, and
// mid-stream-reset faults.
func (msc *muxServerConn) writePartial(st *mux.Stream, resp *httpmsg.Response, prefix []byte) {
	msc.sess.WriteHeaders(st, responseFields(resp, len(resp.Body)), false)
	if len(prefix) > 0 {
		msc.sess.WriteData(st, prefix, false)
	}
}

// push promises one inline object on the parent stream and queues its
// response at image priority (the page's own DATA goes first).
func (msc *muxServerConn) push(parent *mux.Stream, path string) {
	st := msc.sess.PushPromise(parent, []mux.Field{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: path},
	})
	if st == nil {
		return
	}
	st.Priority = 1
	msc.sc.srv.stats.PushedStreams++
	msc.pending.Push(muxJob{
		st:     st,
		req:    &httpmsg.Request{Method: "GET", Target: path, Proto: httpmsg.Proto11},
		pushed: true,
	})
}

// writeResponse lowers an HTTP/1.x response onto the stream.
func (msc *muxServerConn) writeResponse(st *mux.Stream, method string, resp *httpmsg.Response) {
	body := resp.Body
	if method == "HEAD" {
		body = nil
	}
	if len(body) == 0 {
		msc.sess.WriteHeaders(st, responseFields(resp, 0), true)
		return
	}
	msc.sess.WriteHeaders(st, responseFields(resp, len(body)), false)
	msc.sess.WriteData(st, body, true)
}

// responseFields lowers response headers into mux header fields;
// bodyLen > 0 advertises a content-length (possibly more than will
// ever be sent, under the truncation faults).
func responseFields(resp *httpmsg.Response, bodyLen int) []mux.Field {
	fields := make([]mux.Field, 0, 8)
	fields = append(fields, mux.Field{Name: ":status", Value: strconv.Itoa(resp.StatusCode)})
	for _, f := range resp.Header.Fields() {
		name := mux.LowerName(f.Name)
		if name == "connection" {
			continue // the framing layer owns connection management
		}
		fields = append(fields, mux.Field{Name: name, Value: f.Value})
	}
	if bodyLen > 0 {
		fields = append(fields, mux.Field{Name: "content-length", Value: strconv.Itoa(bodyLen)})
	}
	return fields
}

// maybeClose half-closes once the client has and every job is served,
// mirroring the HTTP/1.x connection's graceful shutdown.
func (msc *muxServerConn) maybeClose() {
	if msc.processing || msc.pending.Len() > 0 {
		return
	}
	if msc.sc.conn.State() == tcpsim.StateCloseWait {
		msc.sc.close()
	}
}
