package httpmsg

import (
	"slices"
	"strconv"
)

// Protocol version strings.
const (
	Proto10 = "HTTP/1.0"
	Proto11 = "HTTP/1.1"
)

// Request is an HTTP request message.
type Request struct {
	Method string
	Target string
	Proto  string
	Header Header
	Body   []byte
}

// Marshal serializes the request. If a body is present a Content-Length
// field is added unless already set.
func (r *Request) Marshal() []byte { return r.AppendTo(nil) }

// AppendTo appends the request's serialization to dst, growing it at most
// once: a sender marshals straight into its output buffer.
func (r *Request) AppendTo(dst []byte) []byte {
	length := -1
	if len(r.Body) > 0 && !r.Header.Has("Content-Length") {
		length = len(r.Body)
	}
	b := slices.Grow(dst, len(r.Method)+len(r.Target)+len(r.Proto)+4+
		r.Header.wireSize()+lengthSize(length)+2+len(r.Body))
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Target...)
	b = append(b, ' ')
	b = append(b, r.Proto...)
	b = append(b, "\r\n"...)
	b = r.Header.appendTo(b)
	if length >= 0 {
		b = appendLength(b, length)
	}
	b = append(b, "\r\n"...)
	return append(b, r.Body...)
}

// IsHTTP11 reports whether the request is HTTP/1.1.
func (r *Request) IsHTTP11() bool { return r.Proto == Proto11 }

// WantsClose reports whether the peer asked for the connection to close
// after this message, per the version's default and Connection tokens.
func (r *Request) WantsClose() bool {
	conn := r.Header.Get("Connection")
	if r.IsHTTP11() {
		return TokenListContains(conn, "close")
	}
	return !TokenListContains(conn, "keep-alive")
}

// Response is an HTTP response message.
type Response struct {
	Proto      string
	StatusCode int
	Reason     string
	Header     Header
	Body       []byte
	// BodyLen is set by ResponseParser: the body bytes received, len(Body)
	// unless its KeepBody declined them. Marshal ignores it.
	BodyLen int
	// NoBodyLength leaves the body length undeclared: HTTP/1.0 style
	// "read until close" framing.
	NoBodyLength bool
}

// StatusText returns the canonical reason phrase for the codes this
// implementation uses.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 206:
		return "Partial Content"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 412:
		return "Precondition Failed"
	case 500:
		return "Internal Server Error"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 505:
		return "HTTP Version Not Supported"
	}
	return "Unknown"
}

// NewResponse builds a response with the canonical reason phrase.
func NewResponse(proto string, code int) *Response {
	return &Response{Proto: proto, StatusCode: code, Reason: StatusText(code)}
}

// bodyless reports whether a status code forbids a body.
func bodyless(code int) bool {
	return code == 304 || code == 204 || (code >= 100 && code < 200)
}

// Marshal serializes the response with correct body framing.
func (r *Response) Marshal() []byte { return r.MarshalFor("GET") }

// MarshalFor serializes the response as the reply to the given request
// method: HEAD responses carry headers only.
func (r *Response) MarshalFor(method string) []byte { return r.AppendFor(nil, method) }

// AppendFor appends what MarshalFor returns to dst, growing it at most
// once.
func (r *Response) AppendFor(dst []byte, method string) []byte {
	b, body := r.appendHead(dst, method, true)
	return append(b, body...)
}

// AppendHeadFor appends the head of what MarshalFor returns to dst and
// returns the body bytes that follow it, r.Body itself: a server queues
// the head and then the body, which it need not copy. For HEAD and
// bodyless statuses the body returned is empty.
func (r *Response) AppendHeadFor(dst []byte, method string) (head, body []byte) {
	return r.appendHead(dst, method, false)
}

// appendHead appends the head to dst, which it grows once, for the body
// that follows too when sizeBody is set.
func (r *Response) appendHead(dst []byte, method string, sizeBody bool) (head, body []byte) {
	// The Content-Length this serialization adds after the header's own
	// fields (-1 for none), and the body bytes that follow the head.
	length, body := -1, r.Body
	switch {
	case bodyless(r.StatusCode):
		// No body, no framing field.
		body = nil
	case method == "HEAD":
		// Keep the declared Content-Length of the would-be body: HEAD
		// responses advertise the entity's length without sending it.
		length, body = len(r.Body), nil
	case !r.NoBodyLength:
		length = len(r.Body)
	}
	if r.Header.Has("Content-Length") {
		length = -1
	}

	size := len(r.Proto) + len(r.Reason) + 8 + r.Header.wireSize() + lengthSize(length) + 2
	if sizeBody {
		size += len(body)
	}
	b := slices.Grow(dst, size)
	b = append(b, r.Proto...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, r.Reason...)
	b = append(b, "\r\n"...)
	b = r.Header.appendTo(b)
	if length >= 0 {
		b = appendLength(b, length)
	}
	b = append(b, "\r\n"...)
	return b, body
}
