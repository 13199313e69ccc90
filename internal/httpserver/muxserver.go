package httpserver

import (
	"strconv"

	"repro/internal/faults"
	"repro/internal/httpmsg"
	"repro/internal/mux"
)

// startMux hands the connection to a framed session: requests arrive as
// HEADERS, responses leave as HEADERS+DATA interleaved by the session's
// priority scheduler, and, when the client advertised push, the page's
// inline objects are promised and pushed ahead of the client asking.
// The frames go into the connection's output buffer, the HTTP/1.x
// path's, under the same serving loop.
func (sc *serverConn) startMux() {
	srv := sc.srv
	sess := mux.NewServer(func(b []byte) { sc.conn.CorkBytes(b) })
	sess.FIFO = srv.cfg.MuxFIFO
	sess.OnHeaders = sc.onHeaders
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
	sc.sess = sess
	sess.Start()
}

// onHeaders lifts a request header block back into an httpmsg.Request
// so the HTTP/1.x response logic (conditional GET, ranges, deflate,
// burst) applies unchanged.
func (sc *serverConn) onHeaders(st *mux.Stream, fields []mux.Field, end bool) {
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
	sc.enqueue(job{req: req, st: st})
}

// writeFramed writes j's response on its stream. A client's GET of a
// page first promises every inline object of the page, so the promises
// reach the client ahead of the HTML parse (and ahead of its own
// requests). A 304 pushes too: the client may hold the page but not
// its contents.
func (sc *serverConn) writeFramed(j job, resp *httpmsg.Response) {
	if !j.pushed() && sc.sess.EnablePush && j.req.Method == "GET" &&
		(resp.StatusCode == 200 || resp.StatusCode == 304) {
		for _, path := range sc.srv.site.InlineLinks(j.req.Target) {
			sc.push(j.st, path)
		}
	}
	body := resp.Body
	if j.req.Method == "HEAD" {
		body = nil
	}
	if len(body) == 0 {
		sc.sess.WriteHeaders(j.st, responseFields(resp, 0), true)
		return
	}
	sc.sess.WriteHeaders(j.st, responseFields(resp, len(body)), false)
	sc.sess.WriteData(j.st, body, true)
}

// push promises one inline object on the parent stream and queues its
// response at image priority (the page's own DATA goes first).
func (sc *serverConn) push(parent *mux.Stream, path string) {
	st := sc.sess.PushPromise(parent, []mux.Field{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: path},
	})
	if st == nil {
		return
	}
	st.Priority = 1
	sc.pending.Push(job{
		req: &httpmsg.Request{Method: "GET", Target: path, Proto: httpmsg.Proto11},
		st:  st,
	})
}

// injectFramedFault fires a scripted one-shot fault against a framed
// response: the HTTP/1.x kinds mapped onto framing, and the mux kinds.
// It reports whether the fault consumed the response. Ordinals are
// counted server-wide (muxSeq for client-requested responses, pushSeq
// for pushes) so each fault fires exactly once per run even across
// redials.
func (sc *serverConn) injectFramedFault(j job, resp *httpmsg.Response) bool {
	srv := sc.srv
	f := srv.cfg.Fault
	body := resp.Body
	if j.req.Method == "HEAD" {
		body = nil
	}
	prefix := body[:min(f.Bytes, len(body))]

	if j.pushed() {
		if srv.pushSeq++; f.Kind != faults.MuxPushAbort || srv.pushSeq != f.At {
			return false
		}
		// Push-then-abort: the promise went out, the body starts, and
		// then the server thinks better of it and resets its own push.
		sc.writePartial(j.st, resp, prefix)
		sc.sess.RstStreamCode(j.st, mux.ErrCodeInternal)
		sc.fire(f.At)
		return true
	}

	if srv.muxSeq++; srv.muxSeq != f.At {
		return false
	}
	switch f.Kind {
	case faults.MuxStall:
		// Emit a SETTINGS frame where the response should be, then
		// wedge the whole connection: nothing further is sent and
		// incoming frames (acks included) are never processed again.
		p := []byte{
			0, byte(mux.SettingInitialWindowSize),
			0, 0, byte(mux.DefaultInitialWindow >> 8), byte(mux.DefaultInitialWindow & 0xff)}
		sc.conn.Write(mux.AppendFrame(nil, mux.FrameSettings, 0, 0, p))
		sc.fire(f.At)
		sc.stalled = true
	case faults.Stall:
		// Framed mapping of the HTTP/1.x stall: this one stream gets
		// headers and then silence forever, while every other stream
		// on the session keeps being served. Only the client's
		// per-stream watchdog clears it.
		sc.writePartial(j.st, resp, nil)
		sc.fire(f.At)
	case faults.MuxGarbage:
		// A frame of unknown type on a stream nobody opened, ahead of
		// the real response: the client's strict validator must
		// reject it and close the session with GOAWAY.
		sc.conn.Write(mux.AppendFrame(nil, mux.FrameType(0xb), 0, 0xdead, []byte{0xba, 0xad}))
		sc.fire(f.At)
		return false // the response itself is still served
	case faults.MuxRst:
		// Mid-stream RST: partial body, then RST_STREAM(INTERNAL_ERROR).
		sc.writePartial(j.st, resp, prefix)
		sc.sess.RstStreamCode(j.st, mux.ErrCodeInternal)
		sc.fire(f.At)
	case faults.MuxTruncate:
		// Mid-frame truncation: headers go out through the session,
		// then a hand-marshalled DATA frame is cut short of its own
		// length field and the connection fully closes — the client's
		// frame reader must flag the trailing bytes.
		sc.sess.WriteHeaders(j.st, responseFields(resp, len(body)), false)
		frame := mux.AppendFrame(nil, mux.FrameData, 0, j.st.ID, prefix)
		sc.conn.Write(frame[:len(frame)-3])
		sc.fire(f.At)
		sc.closing = true
		sc.conn.Close()
	case faults.Truncate:
		// Stream-level truncation (the HTTP/1.x script on framing):
		// clean frames, but the stream never ends and the connection
		// fully closes under it.
		sc.writePartial(j.st, resp, prefix)
		sc.fire(f.At)
		sc.closing = true
		sc.conn.Close()
	case faults.Abort:
		sc.conn.Flush()
		sc.fire(f.At)
		sc.closing = true
		sc.conn.Abort()
	default:
		return false
	}
	return true
}

// writePartial serves headers and a body prefix without ever ending
// the stream — the shared shape of the truncation, stall, and
// mid-stream-reset faults.
func (sc *serverConn) writePartial(st *mux.Stream, resp *httpmsg.Response, prefix []byte) {
	sc.sess.WriteHeaders(st, responseFields(resp, len(resp.Body)), false)
	if len(prefix) > 0 {
		sc.sess.WriteData(st, prefix, false)
	}
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
