package mux

import (
	"fmt"
	"slices"
)

// Defaults mirror RFC 7540: a 65,535-octet initial flow-control
// window. The default max frame size is deliberately small — 1 KiB
// rather than HTTP/2's 16 KiB floor — so that DATA from concurrent
// streams actually interleaves on the paper's slow links instead of
// serializing into page-sized bursts.
const (
	DefaultInitialWindow = 65535
	DefaultMaxFrameSize  = 1024
)

// windowRefresh is how much of a window the peer must use before a
// WINDOW_UPDATE returns it: half, as HTTP/2 receivers such as Go's do.
const windowRefresh = DefaultInitialWindow / 2

// MaxWindow is the largest legal flow-control window (RFC 7540 §6.9.1:
// 2^31-1). A WINDOW_UPDATE or SETTINGS value that would push a window
// past it is a flow-control protocol violation.
const MaxWindow = 1<<31 - 1

// Stats counts what the session did; the client and server surface
// these as run metrics.
type Stats struct {
	StreamsOpened     int   // streams this side opened (incl. pushes)
	PushPromised      int   // PUSH_PROMISE frames sent or received
	HeaderBytesSaved  int64 // Σ (plain header size − encoded block size), both directions
	FlowControlStalls int   // transitions into a window-exhausted state
	FramesSent        int
	GoawaysSent       int // GOAWAY frames this side emitted
}

// Stream is one multiplexed request/response exchange.
type Stream struct {
	ID       uint32
	Priority int // lower is more urgent; set by the sending side only
	UserData any // caller's per-stream state; the session never touches it

	ResetSent bool    // we sent RST_STREAM (e.g. cancelling a push)
	ResetRecv bool    // peer reset the stream
	ResetCode ErrCode // error code carried on the RST_STREAM, either direction

	sendWindow int
	recvWindow int // credit we have granted the peer for this stream
	sendBuf    []byte
	endPending bool // FlagEndStream owed once sendBuf drains
	endSent    bool
	recvEnded  bool
	stalled    bool // currently blocked on flow control (for edge-counting)
}

// done reports whether the stream has nothing left to send.
func (st *Stream) done() bool {
	return len(st.sendBuf) == 0 && !st.endPending
}

// Session is one end of a multiplexed connection. It is purely
// computational: bytes in via Feed, bytes out via the Send callback,
// no timers and no I/O, which is what keeps it deterministic under
// any event-engine or parallelism setting.
type Session struct {
	// Send transmits marshalled frames. Each public call flushes at
	// most once, with every frame it generated batched into a single
	// byte slice: the session's own buffer, valid only until Send
	// returns (a transport write copies it). While the session is
	// corked, public calls hold their frames for the Uncork.
	Send func([]byte)

	// EnablePush: on a client, advertised in the initial SETTINGS;
	// on a server, learned from the client's SETTINGS.
	EnablePush bool

	// FIFO switches the DATA pump from the default (priority, id)
	// scheduling to strict first-come-first-served stream order: the
	// earliest-opened stream with queued data drains completely before
	// the next gets a frame (a flow-control-blocked stream yields so
	// the session cannot wedge). The stream-priority ablation knob.
	FIFO bool

	// Callbacks. All optional; fired synchronously from Feed.
	OnHeaders     func(st *Stream, fields []Field, endStream bool)
	OnData        func(st *Stream, p []byte, endStream bool)
	OnPushPromise func(parent, promised *Stream, fields []Field)
	OnRstStream   func(st *Stream)
	OnError       func(err error)
	// OnGoaway fires when the peer announces a session close.
	// lastStreamID is the highest peer-initiated stream the sender may
	// still process; anything above it was never acted on.
	OnGoaway func(lastStreamID uint32, code ErrCode)
	// OnStall fires on each transition into a flow-control stall;
	// conn reports whether the connection window (vs st's stream
	// window) is the exhausted one.
	OnStall func(st *Stream, conn bool)
	// OnFrameSent fires for every frame marshalled for sending —
	// observability taps (Perfetto frame instants) hang here.
	OnFrameSent func(t FrameType, streamID uint32, payloadLen int)

	Stats Stats

	server      bool
	nextID      uint32 // next locally-initiated stream ID (odd client / even server)
	lastPeerID  uint32 // highest peer-initiated stream ID accepted so far
	prefaceLeft int    // server: preface bytes still owed by the client

	// maxFrameSize caps outgoing DATA payloads (the interleaving
	// quantum): DefaultMaxFrameSize, lowered if the peer advertises a
	// smaller SETTINGS_MAX_FRAME_SIZE.
	maxFrameSize int

	streams map[uint32]*Stream
	order   []*Stream // creation order; scheduling iterates this, never the map

	enc Encoder
	dec Decoder
	fr  FrameReader

	connSendWindow int
	connRecvWindow int // credit we have granted the peer for the connection
	peerWindow     int // peer's advertised initial stream window
	connRecvAcc    int // bytes consumed since the last conn WINDOW_UPDATE
	recvAcc        map[uint32]int
	connStalled    bool
	goawaySent     bool
	goawayRecv     bool
	failed         bool

	out    []byte   // frames accumulated since the last flush
	corks  int      // open Cork calls; flush holds out while positive
	ackIDs []uint32 // ackWindows' scratch
}

func newSession(send func([]byte)) *Session {
	return &Session{
		Send:           send,
		maxFrameSize:   DefaultMaxFrameSize,
		streams:        make(map[uint32]*Stream),
		recvAcc:        make(map[uint32]int),
		connSendWindow: DefaultInitialWindow,
		connRecvWindow: DefaultInitialWindow,
		peerWindow:     DefaultInitialWindow,
	}
}

// NewClient returns the client end of a session. Call Start before
// opening streams.
func NewClient(send func([]byte)) *Session {
	s := newSession(send)
	s.nextID = 1
	return s
}

// NewServer returns the server end. Its Feed expects the client
// preface as the first bytes on the connection.
func NewServer(send func([]byte)) *Session {
	s := newSession(send)
	s.server = true
	s.nextID = 2
	s.prefaceLeft = len(Preface)
	return s
}

// Start emits the connection preamble: the preface (client only) and
// this side's SETTINGS.
func (s *Session) Start() {
	if !s.server {
		s.out = append(s.out, Preface...)
	}
	var p []byte
	push := uint32(0)
	if s.EnablePush && !s.server {
		push = 1
	}
	p = appendSetting(p, SettingEnablePush, push)
	p = appendSetting(p, SettingInitialWindowSize, DefaultInitialWindow)
	p = appendSetting(p, SettingMaxFrameSize, DefaultMaxFrameSize)
	s.emit(FrameSettings, 0, 0, p)
	s.flush()
}

// Cork holds the frames of every later public call back from Send until
// the matching Uncork, so that a batch of calls (a dispatch of many
// requests) leaves in one Send. Corks nest.
func (s *Session) Cork() { s.corks++ }

// Uncork ends one Cork; the last sends everything held in one Send.
func (s *Session) Uncork() {
	s.corks--
	s.flush()
}

// OpenStream opens a locally-initiated stream carrying a request (or
// response) header block. endStream marks a bodiless exchange.
func (s *Session) OpenStream(fields []Field, endStream bool, priority int) *Stream {
	st := s.newStream(s.nextID)
	s.nextID += 2
	st.Priority = priority
	s.Stats.StreamsOpened++
	s.WriteHeaders(st, fields, endStream)
	return st
}

// PushPromise reserves an even server-initiated stream announcing a
// push of the request described by fields, promised on parent.
func (s *Session) PushPromise(parent *Stream, fields []Field) *Stream {
	st := s.newStream(s.nextID)
	s.nextID += 2
	s.Stats.StreamsOpened++
	s.Stats.PushPromised++
	block := s.enc.Encode(nil, fields)
	s.Stats.HeaderBytesSaved += int64(PlainSize(fields) - len(block))
	p := make([]byte, 0, 4+len(block))
	p = append(p, byte(st.ID>>24), byte(st.ID>>16), byte(st.ID>>8), byte(st.ID))
	p = append(p, block...)
	s.emit(FramePushPromise, FlagEndHeaders, parent.ID, p)
	s.flush()
	return st
}

// WriteHeaders sends a header block (typically a response) on st.
func (s *Session) WriteHeaders(st *Stream, fields []Field, endStream bool) {
	block := s.enc.Encode(nil, fields)
	s.Stats.HeaderBytesSaved += int64(PlainSize(fields) - len(block))
	flags := FlagEndHeaders
	if endStream {
		flags |= FlagEndStream
		st.endSent = true
	}
	s.emit(FrameHeaders, flags, st.ID, block)
	s.flush()
}

// WriteData queues body bytes on st; the scheduler interleaves and
// flow-controls the actual DATA frames. endStream marks the final
// write. A stream's first write is queued by reference (the bodies
// served here are a site's immutable objects): p must not be modified
// until the stream has drained.
func (s *Session) WriteData(st *Stream, p []byte, endStream bool) {
	if st.ResetRecv || st.ResetSent {
		return // peer gave up on this stream; drop the body
	}
	if len(st.sendBuf) == 0 {
		st.sendBuf = p[:len(p):len(p)] // capped: a later write appends elsewhere
	} else {
		st.sendBuf = append(st.sendBuf, p...)
	}
	if endStream {
		st.endPending = true
	}
	s.pump()
	s.flush()
}

// RstStream abandons st (e.g. a client cancelling an unwanted push).
func (s *Session) RstStream(st *Stream) {
	s.RstStreamCode(st, ErrCodeCancel)
}

// RstStreamCode tears st down with an explicit error code: CANCEL for
// "no longer wanted", anything else for per-stream error teardown
// (e.g. a watchdog expiring one wedged stream while the rest of the
// session keeps going).
func (s *Session) RstStreamCode(st *Stream, code ErrCode) {
	if st.ResetSent {
		return
	}
	st.ResetSent = true
	st.ResetCode = code
	st.sendBuf = nil
	st.endPending = false
	s.emit(FrameRstStream, 0, st.ID,
		[]byte{byte(code >> 24), byte(code >> 16), byte(code >> 8), byte(code)})
	s.flush()
}

// Goaway announces a session close with the given error code; the
// payload carries the highest peer-initiated stream ID this side acted
// on. Emitted at most once per session.
func (s *Session) Goaway(code ErrCode) {
	if s.goawaySent {
		return
	}
	s.goawaySent = true
	s.Stats.GoawaysSent++
	last := s.lastPeerID
	s.emit(FrameGoaway, 0, 0, []byte{
		byte(last >> 24), byte(last >> 16), byte(last >> 8), byte(last),
		byte(code >> 24), byte(code >> 16), byte(code >> 8), byte(code)})
	s.flush()
}

// Feed processes bytes arriving from the transport, firing callbacks
// for each decoded frame and emitting any frames they provoke
// (window updates, scheduled DATA) as one batched Send.
func (s *Session) Feed(data []byte) {
	if s.prefaceLeft > 0 {
		n := min(s.prefaceLeft, len(data))
		want := Preface[len(Preface)-s.prefaceLeft:][:n]
		if string(data[:n]) != want {
			s.protoErr(ErrCodeProtocol, fmt.Errorf("mux: bad connection preface"))
			return
		}
		s.prefaceLeft -= n
		data = data[n:]
		if len(data) == 0 {
			return
		}
	}
	frames, err := s.fr.Feed(data)
	for _, f := range frames {
		s.dispatch(f)
	}
	if err != nil {
		s.protoErr(ErrCodeProtocol, err)
	}
	s.ackWindows()
	s.pump()
	s.flush()
}

// CloseCheck reports whether the peer's byte stream ended on a frame
// boundary; call it on peer half-close.
func (s *Session) CloseCheck() error {
	if s.prefaceLeft > 0 {
		return fmt.Errorf("mux: connection closed inside preface")
	}
	return s.fr.CloseCheck()
}

// Streams returns all streams in creation order.
func (s *Session) Streams() []*Stream {
	return s.order
}

// FlowDeadlock reports whether this side's sender is wedged on flow
// control: it has queued bytes (or an owed END_STREAM) it cannot emit
// because a window is exhausted. It names the first such stream in
// creation order and whether the connection window (vs the stream's
// own) is the exhausted one. Pure inspection — safe to call at any
// quiescent point (the watchdog, end of run) without perturbing the
// session.
func (s *Session) FlowDeadlock() (st *Stream, conn bool, ok bool) {
	for _, c := range s.order {
		if c.done() || c.ResetSent || c.ResetRecv {
			continue
		}
		if s.connStalled && s.connSendWindow <= 0 {
			return c, true, true
		}
		if c.stalled && c.sendWindow <= 0 {
			return c, false, true
		}
	}
	return nil, false, false
}

// PeerDeadlock reports whether the peer's sender is provably wedged
// by credit this side withheld: a stream the peer has not finished
// whose granted window (or the connection's) is exhausted and will
// never be replenished because we stopped acking it. This is the
// classic flow-control deadlock — e.g. a server that keeps pumping a
// push the client reset — and it names the starved stream.
func (s *Session) PeerDeadlock() (st *Stream, ok bool) {
	for _, c := range s.order {
		if c.recvEnded || c.ResetRecv {
			continue
		}
		if s.connRecvWindow <= 0 || c.recvWindow <= 0 {
			return c, true
		}
	}
	return nil, false
}

func (s *Session) newStream(id uint32) *Stream {
	st := &Stream{ID: id, sendWindow: s.peerWindow, recvWindow: DefaultInitialWindow}
	s.streams[id] = st
	s.order = append(s.order, st)
	return st
}

func (s *Session) dispatch(f Frame) {
	switch f.Type {
	case FrameSettings:
		if f.StreamID != 0 {
			s.protoErr(ErrCodeProtocol, fmt.Errorf("mux: SETTINGS on stream %d", f.StreamID))
			return
		}
		pairs, err := parseSettings(f.Payload)
		if err != nil {
			s.protoErr(ErrCodeProtocol, err)
			return
		}
		for _, kv := range pairs {
			id, val := uint16(kv[0]), kv[1]
			switch id {
			case SettingEnablePush:
				if s.server {
					s.EnablePush = val == 1
				}
			case SettingInitialWindowSize:
				if val > MaxWindow {
					s.protoErr(ErrCodeFlowControl,
						fmt.Errorf("mux: SETTINGS initial window %d exceeds 2^31-1", val))
					return
				}
				s.peerWindow = int(val)
			case SettingMaxFrameSize:
				if val == 0 || val > MaxFrameLen {
					s.protoErr(ErrCodeProtocol,
						fmt.Errorf("mux: SETTINGS max frame size %d out of range", val))
					return
				}
				if int(val) < s.maxFrameSize {
					s.maxFrameSize = int(val)
				}
			}
		}

	case FrameHeaders:
		st, err := s.recvStream(f.StreamID)
		if err != nil {
			s.protoErr(ErrCodeProtocol, err)
			return
		}
		fields, err := s.dec.Decode(f.Payload)
		if err != nil {
			s.protoErr(ErrCodeProtocol, err)
			return
		}
		s.Stats.HeaderBytesSaved += int64(PlainSize(fields) - len(f.Payload))
		end := f.Flags&FlagEndStream != 0
		if end {
			st.recvEnded = true
		}
		if s.OnHeaders != nil {
			s.OnHeaders(st, fields, end)
		}

	case FramePushPromise:
		if s.server {
			s.protoErr(ErrCodeProtocol, fmt.Errorf("mux: PUSH_PROMISE from the client"))
			return
		}
		if len(f.Payload) < 4 {
			s.protoErr(ErrCodeProtocol, fmt.Errorf("mux: short PUSH_PROMISE payload"))
			return
		}
		pid := uint32(f.Payload[0])<<24 | uint32(f.Payload[1])<<16 |
			uint32(f.Payload[2])<<8 | uint32(f.Payload[3])
		parent := s.streams[f.StreamID]
		if f.StreamID == 0 || parent == nil {
			s.protoErr(ErrCodeProtocol,
				fmt.Errorf("mux: PUSH_PROMISE on unknown stream %d", f.StreamID))
			return
		}
		if pid == 0 || pid%2 != 0 || pid <= s.lastPeerID || s.streams[pid] != nil {
			s.protoErr(ErrCodeProtocol,
				fmt.Errorf("mux: PUSH_PROMISE with invalid promised stream %d", pid))
			return
		}
		fields, err := s.dec.Decode(f.Payload[4:])
		if err != nil {
			s.protoErr(ErrCodeProtocol, err)
			return
		}
		s.Stats.HeaderBytesSaved += int64(PlainSize(fields) - (len(f.Payload) - 4))
		s.Stats.PushPromised++
		s.lastPeerID = pid
		promised := s.newStream(pid)
		if s.OnPushPromise != nil {
			s.OnPushPromise(parent, promised, fields)
		}

	case FrameData:
		n := len(f.Payload)
		st := s.streams[f.StreamID]
		if f.StreamID == 0 || st == nil {
			s.protoErr(ErrCodeProtocol, fmt.Errorf("mux: DATA on unknown stream %d", f.StreamID))
			return
		}
		if s.connRecvWindow -= n; s.connRecvWindow < 0 {
			s.protoErr(ErrCodeFlowControl,
				fmt.Errorf("mux: peer overran the connection window by %d bytes", -s.connRecvWindow))
			return
		}
		st.recvWindow -= n
		if st.recvWindow < 0 && !st.ResetSent {
			// Tolerate overruns on streams we reset (DATA racing the
			// RST is legal); anywhere else it is a violation.
			s.protoErr(ErrCodeFlowControl,
				fmt.Errorf("mux: peer overran stream %d window by %d bytes", st.ID, -st.recvWindow))
			return
		}
		s.connRecvAcc += n
		if !st.ResetSent {
			s.recvAcc[f.StreamID] += n
		}
		end := f.Flags&FlagEndStream != 0
		if end {
			st.recvEnded = true
		}
		if s.OnData != nil {
			s.OnData(st, f.Payload, end)
		}

	case FrameWindowUpdate:
		if len(f.Payload) != 4 {
			s.protoErr(ErrCodeProtocol,
				fmt.Errorf("mux: bad WINDOW_UPDATE payload length %d", len(f.Payload)))
			return
		}
		inc := int(uint32(f.Payload[0])<<24 | uint32(f.Payload[1])<<16 |
			uint32(f.Payload[2])<<8 | uint32(f.Payload[3]))
		if inc == 0 {
			s.protoErr(ErrCodeProtocol, fmt.Errorf("mux: zero-increment WINDOW_UPDATE"))
			return
		}
		if f.StreamID == 0 {
			if s.connSendWindow+inc > MaxWindow {
				s.protoErr(ErrCodeFlowControl,
					fmt.Errorf("mux: connection window overflow (%d + %d)", s.connSendWindow, inc))
				return
			}
			s.connSendWindow += inc
			s.connStalled = false
		} else if st := s.streams[f.StreamID]; st != nil {
			if st.sendWindow+inc > MaxWindow {
				// Per RFC 7540 §6.9.1 a stream window overflow is a
				// stream error: tear down just that stream.
				s.RstStreamCode(st, ErrCodeFlowControl)
				return
			}
			st.sendWindow += inc
			st.stalled = false
		}

	case FrameRstStream:
		if len(f.Payload) != 4 || f.StreamID == 0 {
			s.protoErr(ErrCodeProtocol,
				fmt.Errorf("mux: malformed RST_STREAM (stream %d, %d payload bytes)",
					f.StreamID, len(f.Payload)))
			return
		}
		st := s.streams[f.StreamID]
		if st == nil {
			return // RST racing our own teardown of a finished stream
		}
		st.ResetRecv = true
		st.ResetCode = ErrCode(uint32(f.Payload[0])<<24 | uint32(f.Payload[1])<<16 |
			uint32(f.Payload[2])<<8 | uint32(f.Payload[3]))
		st.sendBuf = nil
		st.endPending = false
		if s.OnRstStream != nil {
			s.OnRstStream(st)
		}

	case FrameGoaway:
		if len(f.Payload) < 8 || f.StreamID != 0 {
			s.protoErr(ErrCodeProtocol, fmt.Errorf("mux: malformed GOAWAY"))
			return
		}
		last := uint32(f.Payload[0])<<24 | uint32(f.Payload[1])<<16 |
			uint32(f.Payload[2])<<8 | uint32(f.Payload[3])
		code := ErrCode(uint32(f.Payload[4])<<24 | uint32(f.Payload[5])<<16 |
			uint32(f.Payload[6])<<8 | uint32(f.Payload[7]))
		s.goawayRecv = true
		if s.OnGoaway != nil {
			s.OnGoaway(last, code)
		}

	default:
		// Unknown frame types are a violation under the strict
		// validator: the simulator defines every type it ever sends,
		// so anything else is injected garbage.
		s.protoErr(ErrCodeProtocol, fmt.Errorf("mux: unknown frame type %s", f.Type))
	}
}

// recvStream resolves the stream a peer HEADERS frame targets,
// creating it when the ID validly opens a new peer-initiated stream.
// A server accepts new odd (client-initiated) IDs in increasing
// order; a client only ever receives HEADERS on streams it already
// knows (its own requests, or pushes announced by PUSH_PROMISE).
func (s *Session) recvStream(id uint32) (*Stream, error) {
	if id == 0 {
		return nil, fmt.Errorf("mux: HEADERS on stream 0")
	}
	if st := s.streams[id]; st != nil {
		return st, nil
	}
	if s.server && id%2 == 1 && id > s.lastPeerID {
		s.lastPeerID = id
		return s.newStream(id), nil
	}
	return nil, fmt.Errorf("mux: HEADERS on unknown stream %d", id)
}

// protoErr handles a connection-level protocol violation: announce
// the close with a GOAWAY carrying code, then surface err to the
// session owner.
func (s *Session) protoErr(code ErrCode, err error) {
	s.Goaway(code)
	s.fail(err)
}

// ackWindows returns consumed credit as WINDOW_UPDATE frames, once the
// peer has used windowRefresh bytes of the connection's window or of a
// stream's still expecting data, batched into the same Send as anything
// else this Feed produced. Streams are acked in ID order for determinism.
func (s *Session) ackWindows() {
	if s.failed || s.goawaySent {
		// A dying session must not grant credit: a WINDOW_UPDATE sent
		// alongside (or after) an error GOAWAY uncorks the peer's
		// flow-stalled streams into a connection that is about to be
		// torn down, saturating the link with bytes nobody will read.
		s.connRecvAcc = 0
		clear(s.recvAcc)
		return
	}
	if s.connRecvAcc >= windowRefresh {
		s.connRecvWindow += s.connRecvAcc
		s.emitWindowUpdate(0, s.connRecvAcc)
		s.connRecvAcc = 0
	}
	ids := s.ackIDs[:0]
	for id, n := range s.recvAcc {
		if st := s.streams[id]; st == nil || st.recvEnded || st.ResetSent {
			delete(s.recvAcc, id) // no further data is owed on it
		} else if n >= windowRefresh {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	s.ackIDs = ids
	for _, id := range ids {
		s.streams[id].recvWindow += s.recvAcc[id]
		s.emitWindowUpdate(id, s.recvAcc[id])
		delete(s.recvAcc, id)
	}
}

func (s *Session) emitWindowUpdate(id uint32, inc int) {
	s.emit(FrameWindowUpdate, 0, id,
		[]byte{byte(inc >> 24), byte(inc >> 16), byte(inc >> 8), byte(inc)})
}

// pump runs the deterministic DATA scheduler: repeatedly pick the
// most urgent priority band with queued data, give each of its
// streams (in ID order) one maxFrameSize chunk, and stop when queues
// or windows run dry. Window exhaustion is edge-counted as a
// flow-control stall. With FIFO set, priority bands are ignored and
// each pass serves only the earliest-opened unfinished stream, so
// streams drain strictly in creation order.
func (s *Session) pump() {
	for {
		band, any := 0, false
		for _, st := range s.order {
			if st.done() {
				continue
			}
			if !any || st.Priority < band {
				band, any = st.Priority, true
			}
		}
		if !any {
			return
		}
		progress := false
		served := false
		for _, st := range s.order {
			if st.done() || (!s.FIFO && st.Priority != band) {
				continue
			}
			if s.FIFO && served {
				break
			}
			if len(st.sendBuf) == 0 {
				// Only the end-of-stream flag is owed.
				s.emit(FrameData, FlagEndStream, st.ID, nil)
				st.endPending, st.endSent = false, true
				progress = true
				served = true
				continue
			}
			n := min(len(st.sendBuf), s.maxFrameSize)
			if s.connSendWindow <= 0 {
				if !s.connStalled {
					s.connStalled = true
					s.Stats.FlowControlStalls++
					if s.OnStall != nil {
						s.OnStall(st, true)
					}
				}
				return
			}
			if st.sendWindow <= 0 {
				if !st.stalled {
					st.stalled = true
					s.Stats.FlowControlStalls++
					if s.OnStall != nil {
						s.OnStall(st, false)
					}
				}
				continue
			}
			n = min(n, s.connSendWindow, st.sendWindow)
			var flags uint8
			if n == len(st.sendBuf) && st.endPending {
				flags = FlagEndStream
				st.endPending, st.endSent = false, true
			}
			s.emit(FrameData, flags, st.ID, st.sendBuf[:n])
			st.sendBuf = st.sendBuf[n:]
			st.sendWindow -= n
			s.connSendWindow -= n
			progress = true
			served = true
		}
		if !progress {
			return
		}
	}
}

func (s *Session) emit(t FrameType, flags uint8, id uint32, payload []byte) {
	s.Stats.FramesSent++
	if s.OnFrameSent != nil {
		s.OnFrameSent(t, id, len(payload))
	}
	s.out = AppendFrame(s.out, t, flags, id, payload)
}

func (s *Session) flush() {
	if len(s.out) == 0 || s.corks > 0 {
		return
	}
	b := s.out
	s.out = nil
	if s.Send != nil {
		s.Send(b)
	}
	if s.out == nil {
		s.out = b[:0] // unless Send re-entered the session, reuse the buffer
	}
}

func (s *Session) fail(err error) {
	s.failed = true
	if s.OnError != nil {
		s.OnError(err)
	}
}
