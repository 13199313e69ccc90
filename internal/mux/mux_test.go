package mux

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// feedSplits drives a FrameReader with the same bytes split at every
// possible single boundary, checking the frame sequence is identical.
func TestFrameRoundTripAnySplit(t *testing.T) {
	var wire []byte
	wire = AppendFrame(wire, FrameSettings, 0, 0, appendSetting(nil, SettingEnablePush, 1))
	wire = AppendFrame(wire, FrameHeaders, FlagEndHeaders|FlagEndStream, 1, []byte("hdrs"))
	wire = AppendFrame(wire, FrameData, 0, 1, bytes.Repeat([]byte("x"), 300))
	wire = AppendFrame(wire, FrameWindowUpdate, 0, 0, []byte{0, 0, 1, 44})

	type flat struct {
		T  FrameType
		F  uint8
		ID uint32
		P  string
	}
	collect := func(frames []Frame, acc []flat) []flat {
		for _, f := range frames {
			acc = append(acc, flat{f.Type, f.Flags, f.StreamID, string(f.Payload)})
		}
		return acc
	}
	var whole []flat
	{
		var r FrameReader
		fs, err := r.Feed(wire)
		if err != nil {
			t.Fatal(err)
		}
		whole = collect(fs, nil)
		if err := r.CloseCheck(); err != nil {
			t.Fatal(err)
		}
	}
	if len(whole) != 4 {
		t.Fatalf("got %d frames, want 4", len(whole))
	}
	for cut := 0; cut <= len(wire); cut++ {
		var r FrameReader
		var got []flat
		fs, err := r.Feed(wire[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got = collect(fs, got)
		fs, err = r.Feed(wire[cut:])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got = collect(fs, got)
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("cut %d: frames diverge", cut)
		}
		if err := r.CloseCheck(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
}

func TestFrameErrors(t *testing.T) {
	var r FrameReader
	huge := []byte{0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1}
	if _, err := r.Feed(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize length: %v", err)
	}
	if _, err := r.Feed(nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("dead reader revived: %v", err)
	}

	var r2 FrameReader
	reserved := []byte{0, 0, 0, 0, 0, 0x80, 0, 0, 1}
	if _, err := r2.Feed(reserved); !errors.Is(err, ErrReservedBit) {
		t.Fatalf("reserved bit: %v", err)
	}

	var r3 FrameReader
	frame := AppendFrame(nil, FrameData, 0, 1, []byte("abcdef"))
	if _, err := r3.Feed(frame[:len(frame)-2]); err != nil {
		t.Fatal(err)
	}
	if err := r3.CloseCheck(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated close: %v", err)
	}
}

func TestHpackRoundTripAndSavings(t *testing.T) {
	var enc Encoder
	var dec Decoder
	reqs := [][]Field{
		{{":method", "GET"}, {":path", "/"}, {":authority", "server"}, {"user-agent", "robot/1.1"}},
		{{":method", "GET"}, {":path", "/images/a.png"}, {":authority", "server"}, {"user-agent", "robot/1.1"}},
		{{":method", "GET"}, {":path", "/images/a.png"}, {":authority", "server"}, {"user-agent", "robot/1.1"}},
	}
	var prevLen int
	for i, fields := range reqs {
		block := enc.Encode(nil, fields)
		got, err := dec.Decode(block)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, fields) {
			t.Fatalf("req %d: round trip %v != %v", i, got, fields)
		}
		if len(block) >= PlainSize(fields) {
			t.Fatalf("req %d: block %dB not smaller than plain %dB", i, len(block), PlainSize(fields))
		}
		if i == 2 && len(block) >= prevLen {
			// The third request repeats the second exactly: every
			// field is table-indexed, so it must shrink further.
			t.Fatalf("repeat request block %dB, want < %dB", len(block), prevLen)
		}
		prevLen = len(block)
	}
}

func TestHpackDecodeErrors(t *testing.T) {
	for _, bad := range [][]byte{
		{0x81, 0x00},       // valid index, then a truncated literal
		{0xff},             // unterminated varint
		{0x00, 0x05, 'a'},  // literal name length exceeds block
		{0x40, 0x07, 0x02}, // name-indexed with short value
		{0xbf},             // index far past the table
	} {
		var dec Decoder
		if _, err := dec.Decode(bad); err == nil {
			t.Fatalf("decode(%x) accepted", bad)
		}
	}
	var dec Decoder
	if _, err := dec.Decode([]byte{0x80 | 99, 0}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// pair wires a client and server session through in-memory queues and
// delivers pending bytes until both directions drain.
type pair struct {
	client, server *Session
	toServer       [][]byte
	toClient       [][]byte
}

func newPair() *pair {
	p := &pair{}
	// Send's slice is the session's reused buffer: a queueing transport
	// copies it, as a TCP write does.
	p.client = NewClient(func(b []byte) { p.toServer = append(p.toServer, bytes.Clone(b)) })
	p.server = NewServer(func(b []byte) { p.toClient = append(p.toClient, bytes.Clone(b)) })
	return p
}

func (p *pair) run() {
	for len(p.toServer) > 0 || len(p.toClient) > 0 {
		if len(p.toServer) > 0 {
			b := p.toServer[0]
			p.toServer = p.toServer[1:]
			p.server.Feed(b)
		}
		if len(p.toClient) > 0 {
			b := p.toClient[0]
			p.toClient = p.toClient[1:]
			p.client.Feed(b)
		}
	}
}

func TestSessionRequestResponse(t *testing.T) {
	p := newPair()
	type exch struct {
		fields []Field
		body   []byte
		ended  bool
	}
	got := map[uint32]*exch{}
	p.server.OnHeaders = func(st *Stream, fields []Field, end bool) {
		// Echo a response: headers plus a body derived from the path.
		var path string
		for _, f := range fields {
			if f.Name == ":path" {
				path = f.Value
			}
		}
		p.server.WriteHeaders(st, []Field{{":status", "200"}, {"content-type", "text/html"}}, false)
		p.server.WriteData(st, bytes.Repeat([]byte(path), 50), true)
	}
	p.client.OnHeaders = func(st *Stream, fields []Field, end bool) {
		got[st.ID] = &exch{fields: fields, ended: end}
	}
	p.client.OnData = func(st *Stream, b []byte, end bool) {
		e := got[st.ID]
		e.body = append(e.body, b...)
		e.ended = e.ended || end
	}
	p.client.Start()
	p.server.Start()
	s1 := p.client.OpenStream([]Field{{":method", "GET"}, {":path", "/a"}}, true, 0)
	s2 := p.client.OpenStream([]Field{{":method", "GET"}, {":path", "/b"}}, true, 0)
	p.run()
	for _, st := range []*Stream{s1, s2} {
		e := got[st.ID]
		if e == nil || !e.ended {
			t.Fatalf("stream %d: incomplete exchange %+v", st.ID, e)
		}
		if len(e.body) != 100 {
			t.Fatalf("stream %d: body %dB, want 100", st.ID, len(e.body))
		}
	}
	if p.client.Stats.StreamsOpened != 2 {
		t.Fatalf("client streams opened = %d", p.client.Stats.StreamsOpened)
	}
	if p.client.Stats.HeaderBytesSaved <= 0 || p.server.Stats.HeaderBytesSaved <= 0 {
		t.Fatalf("header savings client=%d server=%d",
			p.client.Stats.HeaderBytesSaved, p.server.Stats.HeaderBytesSaved)
	}
}

// A response far larger than the 64 KiB initial window must stall,
// then complete once window updates flow back.
func TestSessionFlowControlStallAndRecovery(t *testing.T) {
	p := newPair()
	const bodySize = 3 * DefaultInitialWindow
	var rcvd int
	ended := false
	p.server.OnHeaders = func(st *Stream, _ []Field, _ bool) {
		p.server.WriteHeaders(st, []Field{{":status", "200"}}, false)
		p.server.WriteData(st, make([]byte, bodySize), true)
	}
	p.client.OnData = func(_ *Stream, b []byte, end bool) {
		rcvd += len(b)
		ended = ended || end
	}
	p.client.Start()
	p.server.Start()
	p.client.OpenStream([]Field{{":method", "GET"}, {":path", "/big"}}, true, 0)
	p.run()
	if rcvd != bodySize || !ended {
		t.Fatalf("received %d/%d bytes, ended=%v", rcvd, bodySize, ended)
	}
	if p.server.Stats.FlowControlStalls == 0 {
		t.Fatal("no flow-control stalls counted on an over-window transfer")
	}
}

// Two same-priority streams interleave chunk by chunk; a
// lower-priority stream only drains after the urgent band.
func TestSessionSchedulerPriorityAndInterleave(t *testing.T) {
	s := NewServer(nil)
	s.prefaceLeft = 0
	var order []uint32
	s.Send = func(b []byte) {
		var r FrameReader
		frames, err := r.Feed(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if f.Type == FrameData && len(f.Payload) > 0 {
				order = append(order, f.StreamID)
			}
		}
	}
	a := s.newStream(2)
	b := s.newStream(4)
	c := s.newStream(6)
	c.Priority = 1
	payload := make([]byte, 3*DefaultMaxFrameSize)
	s.WriteData(a, payload, true)
	s.WriteData(b, payload, true)
	s.WriteData(c, payload, true)
	want := []uint32{2, 2, 4, 2, 4, 2, 4, 6, 6, 6}
	// First WriteData pumps stream 2 alone (3 chunks); later calls
	// interleave the band. What matters: c (priority 1) strictly last.
	_ = want
	if len(order) != 9 {
		t.Fatalf("got %d DATA chunks, want 9: %v", len(order), order)
	}
	for _, id := range order[:6] {
		if id == 6 {
			t.Fatalf("low-priority stream sent inside urgent band: %v", order)
		}
	}
	for _, id := range order[6:] {
		if id != 6 {
			t.Fatalf("urgent data after low-priority began: %v", order)
		}
	}
}

func TestSessionPushPromiseAndCancel(t *testing.T) {
	p := newPair()
	p.client.EnablePush = true
	var promised *Stream
	var pushedFields []Field
	wasted := 0
	p.client.OnPushPromise = func(parent, st *Stream, fields []Field) {
		promised, pushedFields = st, fields
		p.client.RstStream(st) // this client wants none of it
	}
	p.client.OnData = func(st *Stream, b []byte, _ bool) {
		if st.ResetSent {
			wasted += len(b)
		}
	}
	var srvPush *Stream
	p.server.OnHeaders = func(st *Stream, _ []Field, _ bool) {
		srvPush = p.server.PushPromise(st, []Field{{":method", "GET"}, {":path", "/images/i.png"}})
		p.server.WriteHeaders(st, []Field{{":status", "200"}}, true)
		p.server.WriteHeaders(srvPush, []Field{{":status", "200"}}, false)
		p.server.WriteData(srvPush, make([]byte, 4096), true)
	}
	p.client.Start()
	p.server.Start()
	if !p.server.EnablePush {
		// EnablePush is learned from the client SETTINGS, which the
		// server only sees once run() delivers them.
		p.run()
	}
	p.client.OpenStream([]Field{{":method", "GET"}, {":path", "/"}}, true, 0)
	p.run()
	if promised == nil || len(pushedFields) == 0 {
		t.Fatal("push promise never reached the client")
	}
	if p.client.Stats.PushPromised != 1 || p.server.Stats.PushPromised != 1 {
		t.Fatalf("push counts client=%d server=%d",
			p.client.Stats.PushPromised, p.server.Stats.PushPromised)
	}
	if !srvPush.ResetRecv {
		t.Fatal("server never saw the cancellation")
	}
	// The server wrote 4 KiB after promising, but the reset raced it;
	// whatever DATA did land on the cancelled stream is the waste the
	// client accounts. Here the cancel arrives before any DATA is
	// pumped, so the drop happens server-side.
	if len(srvPush.sendBuf) != 0 {
		t.Fatalf("reset stream still holds %dB buffered", len(srvPush.sendBuf))
	}
	_ = wasted
}

func TestSessionBadPreface(t *testing.T) {
	var failed error
	s := NewServer(nil)
	s.OnError = func(err error) { failed = err }
	s.Feed([]byte("GET / HTTP/1.0\r\n\r\n"))
	if failed == nil {
		t.Fatal("HTTP/1.0 request accepted as a preface")
	}
}

func TestBurstRoundTrip(t *testing.T) {
	in := []BurstRecord{
		{Path: "/", ContentType: "text/html", ETag: `"abc"`, LastModified: "Mon, 01 Jan 1996 00:00:00 GMT", Body: []byte("<html>hi</html>")},
		{Path: "/images/a.png", ContentType: "image/png", ETag: `"def"`, LastModified: "Tue, 02 Jan 1996 00:00:00 GMT", Body: bytes.Repeat([]byte{7}, 2000)},
		{Path: "/empty", ContentType: "image/gif", ETag: `"g"`, LastModified: "Wed, 03 Jan 1996 00:00:00 GMT"},
	}
	out, err := DecodeBurst(EncodeBurst(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Path != in[i].Path || out[i].ContentType != in[i].ContentType ||
			out[i].ETag != in[i].ETag || out[i].LastModified != in[i].LastModified ||
			!bytes.Equal(out[i].Body, in[i].Body) {
			t.Fatalf("record %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestBurstDecodeErrors(t *testing.T) {
	cases := [][]byte{
		[]byte("no newline anywhere"),
		[]byte("/a text/html 5 \"e\" date\nxx"),     // body shorter than length
		[]byte("/a text/html -1 \"e\" date\n"),      // negative length
		[]byte("/a text/html five \"e\" date\n"),    // non-numeric length
		[]byte("/a text/html 0\n"),                  // too few fields
		append(bytes.Repeat([]byte{'a'}, 600), 'b'), // header line overruns scan window
	}
	for i, c := range cases {
		if _, err := DecodeBurst(c); err == nil {
			t.Fatalf("case %d accepted: %q", i, c)
		}
	}
}

// The session layer must be deterministic: two identical dialogues
// produce byte-identical wire traffic in both directions.
func TestSessionDeterministicWire(t *testing.T) {
	dialogue := func() (string, string) {
		var c2s, s2c bytes.Buffer
		p := newPair()
		cSend, sSend := p.client.Send, p.server.Send
		p.client.Send = func(b []byte) { c2s.Write(b); cSend(b) }
		p.server.Send = func(b []byte) { s2c.Write(b); sSend(b) }
		p.server.OnHeaders = func(st *Stream, _ []Field, _ bool) {
			p.server.WriteHeaders(st, []Field{{":status", "200"}}, false)
			p.server.WriteData(st, make([]byte, 5000), true)
		}
		p.client.Start()
		p.server.Start()
		for i := 0; i < 4; i++ {
			p.client.OpenStream([]Field{{":method", "GET"}, {":path", fmt.Sprintf("/o%d", i)}}, true, i%2)
			p.run()
		}
		return c2s.String(), s2c.String()
	}
	a1, b1 := dialogue()
	a2, b2 := dialogue()
	if a1 != a2 || b1 != b2 {
		t.Fatal("session wire traffic is not deterministic")
	}
}

// TestFlowDeadlockDetector: a sender wedged on exhausted flow-control
// windows is reported by FlowDeadlock with the stalled stream named;
// once the withheld WINDOW_UPDATEs are delivered the wedge clears and
// the transfer completes.
func TestFlowDeadlockDetector(t *testing.T) {
	p := newPair()
	const bodySize = 3 * DefaultInitialWindow
	var rcvd int
	ended := false
	p.server.OnHeaders = func(st *Stream, _ []Field, _ bool) {
		p.server.WriteHeaders(st, []Field{{":status", "200"}}, false)
		p.server.WriteData(st, make([]byte, bodySize), true)
	}
	p.client.OnData = func(_ *Stream, b []byte, end bool) {
		rcvd += len(b)
		ended = ended || end
	}
	p.client.Start()
	p.server.Start()
	want := p.client.OpenStream([]Field{{":method", "GET"}, {":path", "/big"}}, true, 0)
	if _, _, ok := p.server.FlowDeadlock(); ok {
		t.Fatal("deadlock reported before the server even stalled")
	}
	// Deliver the request, then the first window of response DATA to
	// the client — but hold every client->server byte (the acks) back.
	for len(p.toServer) > 0 {
		b := p.toServer[0]
		p.toServer = p.toServer[1:]
		p.server.Feed(b)
	}
	for len(p.toClient) > 0 {
		b := p.toClient[0]
		p.toClient = p.toClient[1:]
		p.client.Feed(b)
	}
	st, _, ok := p.server.FlowDeadlock()
	if !ok {
		t.Fatal("server has an over-window body queued and zero credit; FlowDeadlock saw nothing")
	}
	if st.ID != want.ID {
		t.Fatalf("FlowDeadlock named stream %d, want %d", st.ID, want.ID)
	}
	p.run() // release the held acks
	if _, _, ok := p.server.FlowDeadlock(); ok {
		t.Fatal("deadlock still reported after the windows were replenished")
	}
	if rcvd != bodySize || !ended {
		t.Fatalf("received %d/%d bytes, ended=%v", rcvd, bodySize, ended)
	}
}

// TestPeerDeadlockDetector: a misbehaving peer that keeps pumping DATA
// into a stream we reset eventually exhausts the stream credit we are
// deliberately withholding; PeerDeadlock names the starved stream.
func TestPeerDeadlockDetector(t *testing.T) {
	c := NewClient(func([]byte) {})
	var sessionErr error
	c.OnError = func(err error) { sessionErr = err }
	c.Start()
	st := c.OpenStream([]Field{{":method", "GET"}, {":path", "/push"}}, true, 0)
	c.RstStream(st)
	if _, ok := c.PeerDeadlock(); ok {
		t.Fatal("deadlock reported before any DATA arrived")
	}
	// The peer ignores the RST (DATA racing a reset is legal) and pumps
	// a full window plus one more chunk; the client tolerates the race
	// but never replenishes a reset stream's credit.
	chunk := make([]byte, DefaultMaxFrameSize)
	for sent := 0; sent < DefaultInitialWindow+len(chunk); sent += len(chunk) {
		c.Feed(AppendFrame(nil, FrameData, 0, st.ID, chunk))
	}
	if sessionErr != nil {
		t.Fatalf("tolerated overrun raised a session error: %v", sessionErr)
	}
	got, ok := c.PeerDeadlock()
	if !ok {
		t.Fatal("peer pumped past the withheld window; PeerDeadlock saw nothing")
	}
	if got != st {
		t.Fatalf("PeerDeadlock named stream %d, want %d", got.ID, st.ID)
	}
}

// One array serves a connection's worth of frames: once the reader has
// seen its largest batch, feeding it allocates nothing, however the
// stream is segmented — and the frames still come out whole.
func TestFrameReaderReusesItsBuffer(t *testing.T) {
	var wire []byte
	for id := uint32(1); id < 40; id += 2 {
		wire = AppendFrame(wire, FrameHeaders, FlagEndHeaders, id, make([]byte, 24))
		for i := 0; i < 4; i++ {
			wire = AppendFrame(wire, FrameData, 0, id, bytes.Repeat([]byte{byte(id)}, DefaultMaxFrameSize))
		}
	}
	var r FrameReader
	frames, bad := 0, 0
	pass := func() {
		frames = 0
		for off := 0; off < len(wire); off += 1460 {
			fs, err := r.Feed(wire[off:min(off+1460, len(wire))])
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fs {
				frames++
				if f.Type == FrameData && (len(f.Payload) != DefaultMaxFrameSize ||
					bytes.Count(f.Payload, []byte{byte(f.StreamID)}) != DefaultMaxFrameSize) {
					bad++
				}
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("a warm FrameReader allocates %v times per page of frames, want 0", n)
	}
	if frames != 100 || bad != 0 || r.CloseCheck() != nil {
		t.Fatalf("%d frames (%d corrupted), CloseCheck %v; want 100 intact on a frame boundary", frames, bad, r.CloseCheck())
	}
}

// The session marshals every flush into one buffer it keeps, and queues
// a stream's body by reference: serving a response costs no allocation
// per byte once the buffer has grown to the largest batch.
func TestSessionSendReusesItsBuffer(t *testing.T) {
	s := NewServer(nil)
	s.prefaceLeft, s.connSendWindow = 0, MaxWindow
	sent := 0
	s.Send = func(b []byte) { sent += len(b) }
	body := make([]byte, 20*DefaultMaxFrameSize)
	serve := func(id uint32) {
		st := s.newStream(id)
		s.WriteHeaders(st, []Field{{":status", "200"}}, false)
		s.WriteData(st, body, true)
	}
	serve(2)
	id := uint32(2)
	perStream := testing.AllocsPerRun(20, func() { id += 2; serve(id) })
	if perStream > 4 { // the stream, its map and order slots, the header block
		t.Errorf("serving a stream allocates %v times, want at most 4 and none that scale with the body", perStream)
	}
	if want := int(id) / 2 * (HeaderLen + 1 + len(body) + 20*HeaderLen); sent != want {
		t.Errorf("sent %d bytes, want %d", sent, want)
	}
}

// A corked session holds every frame until the last Uncork: a client
// opening a page's 42 inline requests in one batch writes them once.
func TestCorkedBatchLeavesInOneSend(t *testing.T) {
	var sends [][]byte
	c := NewClient(func(b []byte) { sends = append(sends, bytes.Clone(b)) })
	c.Start()
	sends = nil
	c.Cork()
	c.Cork() // corks nest
	for i := range 42 {
		c.OpenStream([]Field{{":method", "GET"}, {":path", fmt.Sprintf("/images/%d.gif", i)}}, true, 0)
	}
	c.Uncork()
	if len(sends) != 0 {
		t.Fatalf("%d sends before the outer Uncork, want 0", len(sends))
	}
	c.Uncork()
	if len(sends) != 1 {
		t.Fatalf("the batch took %d sends, want 1", len(sends))
	}
	var r FrameReader
	frames, err := r.Feed(sends[0])
	if err != nil || len(frames) != 42 {
		t.Fatalf("the send holds %d frames (%v), want 42 HEADERS", len(frames), err)
	}
	c.OpenStream([]Field{{":method", "GET"}, {":path", "/late.gif"}}, true, 0)
	if len(sends) != 2 {
		t.Fatalf("an uncorked OpenStream took %d sends, want its own", len(sends)-1)
	}
}

// A 169 KB response is credited back in half-window WINDOW_UPDATE steps,
// not one per received write, and the sender never stalls on a window
// while it is.
func TestWindowRefreshInHalfWindowSteps(t *testing.T) {
	p := newPair()
	var incs []int
	send := p.client.Send
	p.client.Send = func(b []byte) {
		var r FrameReader
		frames, _ := r.Feed(b)
		for _, f := range frames {
			if f.Type == FrameWindowUpdate {
				incs = append(incs, int(f.Payload[0])<<24|int(f.Payload[1])<<16|int(f.Payload[2])<<8|int(f.Payload[3]))
			}
		}
		send(b)
	}
	var st *Stream
	p.server.OnHeaders = func(s *Stream, _ []Field, _ bool) { st = s }
	got := 0
	p.client.OnData = func(_ *Stream, b []byte, _ bool) { got += len(b) }
	p.client.Start()
	p.server.Start()
	p.client.OpenStream([]Field{{":method", "GET"}, {":path", "/big"}}, true, 0)
	p.run()
	p.server.WriteHeaders(st, []Field{{":status", "200"}}, false)
	body := make([]byte, 169*1024)
	const chunk = 16 << 10
	for off := 0; off < len(body); off += chunk {
		end := min(off+chunk, len(body))
		p.server.WriteData(st, body[off:end], end == len(body))
		p.run()
	}
	if got != len(body) {
		t.Fatalf("client received %d of %d bytes", got, len(body))
	}
	if n := p.server.Stats.FlowControlStalls; n != 0 {
		t.Errorf("sender stalled %d times", n)
	}
	if len(incs) < 5 {
		t.Errorf("%d WINDOW_UPDATEs for %d bytes, want the connection's five at least", len(incs), len(body))
	}
	for _, inc := range incs {
		if inc < DefaultInitialWindow/2 {
			t.Errorf("WINDOW_UPDATE of %d bytes, want half the %d-byte window or more: %v", inc, DefaultInitialWindow, incs)
			break
		}
	}
}
