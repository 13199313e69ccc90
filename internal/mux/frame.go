// Package mux implements an HTTP/2-style framed, multiplexed
// connection layer over the simulator's byte-stream transport:
// binary frames, concurrent streams with stream- and connection-level
// flow control, a static-table HPACK-like header compressor, and a
// deterministic priority/interleaving scheduler.
//
// The wire format follows RFC 7540 §4.1 (9-byte frame header, 31-bit
// stream identifiers, client preface) closely enough that a frame
// trace reads like HTTP/2, but the package is intentionally a
// simulator protocol, not an interoperable implementation: the header
// compressor uses its own static table, and only the frame types the
// simulator needs are defined.
package mux

import (
	"errors"
	"fmt"
)

// Preface is the client connection preface (RFC 7540 §3.5). The
// client sends it as the first bytes on the connection; the server
// uses the first byte ('P', impossible as the start of any simulator
// HTTP/1.x request method it serves) to route the connection to the
// mux session instead of the HTTP/1.x parser.
const Preface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

// FrameType identifies a frame. Values match RFC 7540 where the
// frame exists there.
type FrameType uint8

const (
	FrameData         FrameType = 0x0
	FrameHeaders      FrameType = 0x1
	FrameRstStream    FrameType = 0x3
	FrameSettings     FrameType = 0x4
	FramePushPromise  FrameType = 0x5
	FrameGoaway       FrameType = 0x7
	FrameWindowUpdate FrameType = 0x8
)

// String returns the RFC 7540 frame-type name.
func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "DATA"
	case FrameHeaders:
		return "HEADERS"
	case FrameRstStream:
		return "RST_STREAM"
	case FrameSettings:
		return "SETTINGS"
	case FramePushPromise:
		return "PUSH_PROMISE"
	case FrameGoaway:
		return "GOAWAY"
	case FrameWindowUpdate:
		return "WINDOW_UPDATE"
	}
	return fmt.Sprintf("FRAME_0x%x", uint8(t))
}

// ErrCode is an RST_STREAM / GOAWAY error code (RFC 7540 §7 subset).
type ErrCode uint32

const (
	ErrCodeNo          ErrCode = 0x0 // graceful shutdown
	ErrCodeProtocol    ErrCode = 0x1 // protocol violation
	ErrCodeFlowControl ErrCode = 0x3 // flow-control violation
	ErrCodeStreamLimit ErrCode = 0x7 // REFUSED_STREAM
	ErrCodeCancel      ErrCode = 0x8 // stream no longer needed
	ErrCodeInternal    ErrCode = 0x2 // internal error
)

// String returns the RFC 7540 error-code name.
func (c ErrCode) String() string {
	switch c {
	case ErrCodeNo:
		return "NO_ERROR"
	case ErrCodeProtocol:
		return "PROTOCOL_ERROR"
	case ErrCodeInternal:
		return "INTERNAL_ERROR"
	case ErrCodeFlowControl:
		return "FLOW_CONTROL_ERROR"
	case ErrCodeStreamLimit:
		return "REFUSED_STREAM"
	case ErrCodeCancel:
		return "CANCEL"
	}
	return fmt.Sprintf("ERR_0x%x", uint32(c))
}

// Frame flags.
const (
	FlagEndStream  uint8 = 0x1 // HEADERS, DATA
	FlagEndHeaders uint8 = 0x4 // HEADERS, PUSH_PROMISE
)

// Settings identifiers (RFC 7540 §6.5.2 subset).
const (
	SettingEnablePush        uint16 = 0x2
	SettingInitialWindowSize uint16 = 0x4
	SettingMaxFrameSize      uint16 = 0x5
)

// HeaderLen is the fixed frame-header size: 24-bit length, 8-bit
// type, 8-bit flags, 32-bit stream identifier (top bit reserved).
const HeaderLen = 9

// MaxFrameLen caps the payload length the parser will accept. It is
// deliberately far above any max frame size a session negotiates so the
// limit only trips on corrupt length fields, not tight configs.
const MaxFrameLen = 1 << 20

// Frame is one decoded frame. Payload aliases the reader's internal
// buffer only until the next Feed call; callers that retain it must
// copy.
type Frame struct {
	Type     FrameType
	Flags    uint8
	StreamID uint32
	Payload  []byte
}

// Errors surfaced by the frame parser. ErrFrameTooLarge and
// ErrReservedBit are fatal to the connection; ErrTruncated is only
// reported by CloseCheck when the peer half-closes mid-frame.
var (
	ErrFrameTooLarge = errors.New("mux: frame length exceeds limit")
	ErrReservedBit   = errors.New("mux: reserved stream-ID bit set")
	ErrTruncated     = errors.New("mux: connection closed mid-frame")
)

// AppendFrame marshals one frame (header + payload) onto b.
func AppendFrame(b []byte, t FrameType, flags uint8, streamID uint32, payload []byte) []byte {
	n := len(payload)
	b = append(b,
		byte(n>>16), byte(n>>8), byte(n),
		byte(t), flags,
		byte(streamID>>24), byte(streamID>>16), byte(streamID>>8), byte(streamID))
	return append(b, payload...)
}

// FrameReader incrementally decodes frames from an arbitrary byte
// stream: Feed accepts any split of the stream (single bytes, whole
// connections) and returns the frames completed so far.
type FrameReader struct {
	buf    []byte  // buf[off:] is the incomplete frame carried to the next Feed
	off    int     // bytes of buf the last Feed's frames consumed
	frames []Frame // the slice Feed returns, reused
	dead   error
}

// Feed appends data and returns every complete frame now available.
// The returned slice and its frames' Payloads alias the reader's
// buffers and are valid only until the next Feed. Once Feed returns an
// error the reader is dead and all further calls return the same error.
func (r *FrameReader) Feed(data []byte) ([]Frame, error) {
	if r.dead != nil {
		return nil, r.dead
	}
	// The previous batch is dead now, so its bytes can be overwritten:
	// slide the carried remnant to the front and append, and the one
	// array serves the whole connection.
	r.buf = append(r.buf[:copy(r.buf, r.buf[r.off:])], data...)
	frames := r.frames[:0]
	off := 0
	for {
		rest := r.buf[off:]
		if len(rest) < HeaderLen {
			break
		}
		n := int(rest[0])<<16 | int(rest[1])<<8 | int(rest[2])
		if n > MaxFrameLen {
			r.dead = fmt.Errorf("%w: %d", ErrFrameTooLarge, n)
			break
		}
		if rest[5]&0x80 != 0 {
			r.dead = ErrReservedBit
			break
		}
		if len(rest) < HeaderLen+n {
			break
		}
		frames = append(frames, Frame{
			Type:     FrameType(rest[3]),
			Flags:    rest[4],
			StreamID: uint32(rest[5])<<24 | uint32(rest[6])<<16 | uint32(rest[7])<<8 | uint32(rest[8]),
			Payload:  rest[HeaderLen : HeaderLen+n],
		})
		off += HeaderLen + n
	}
	r.off, r.frames = off, frames
	return frames, r.dead
}

// CloseCheck reports whether the stream ended cleanly on a frame
// boundary. Call it when the peer half-closes; leftover bytes mean a
// frame was truncated in flight.
func (r *FrameReader) CloseCheck() error {
	if r.dead != nil {
		return r.dead
	}
	if n := len(r.buf) - r.off; n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrTruncated, n)
	}
	return nil
}

// appendSetting marshals one (id, value) settings entry.
func appendSetting(b []byte, id uint16, val uint32) []byte {
	return append(b, byte(id>>8), byte(id),
		byte(val>>24), byte(val>>16), byte(val>>8), byte(val))
}

// parseSettings decodes a SETTINGS payload into (id, value) pairs.
func parseSettings(p []byte) ([][2]uint32, error) {
	if len(p)%6 != 0 {
		return nil, fmt.Errorf("mux: SETTINGS payload length %d not a multiple of 6", len(p))
	}
	out := make([][2]uint32, 0, len(p)/6)
	for i := 0; i+6 <= len(p); i += 6 {
		id := uint32(p[i])<<8 | uint32(p[i+1])
		val := uint32(p[i+2])<<24 | uint32(p[i+3])<<16 | uint32(p[i+4])<<8 | uint32(p[i+5])
		out = append(out, [2]uint32{id, val})
	}
	return out, nil
}
