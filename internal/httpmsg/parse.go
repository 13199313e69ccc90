package httpmsg

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse errors.
var (
	ErrMalformed        = errors.New("httpmsg: malformed message")
	ErrBodyTooLarge     = errors.New("httpmsg: body exceeds limit")
	ErrTruncatedMessage = errors.New("httpmsg: connection closed mid-message")
)

// maxBodyBytes guards against absurd Content-Length values.
const maxBodyBytes = 64 << 20

// maxBodyPrealloc caps what a declared Content-Length may reserve before
// the bytes have arrived: a response's length is known the moment its
// head is parsed, so its body is allocated once instead of grown by
// doubling, but a length is only a claim, and a hostile one must not
// buy more than this. Longer bodies grow past it as they arrive.
const maxBodyPrealloc = 1 << 20

// RequestParser incrementally parses a pipelined stream of requests, as a
// server reads them from a connection.
type RequestParser struct {
	buf  stream
	head *Request   // parsed head awaiting its body
	need int        // body bytes still needed
	out  []*Request // Feed's result, reused
}

// Feed appends data to the parse buffer and returns all requests that are
// now complete. What it has not consumed is copied; the caller may reuse
// data. The returned slice is the parser's own and is valid until the
// next Feed, which reuses its array; the requests in it are the
// caller's, and the parser never touches them again.
func (p *RequestParser) Feed(data []byte) ([]*Request, error) {
	p.buf.push(data)
	defer p.buf.settle()
	clear(p.out)
	p.out = p.out[:0]
	for {
		if p.head == nil {
			end := bytes.Index(p.buf.bytes(), []byte("\r\n\r\n"))
			if end < 0 {
				return p.out, nil
			}
			req, err := parseRequestHead(p.buf.bytes()[:end+4])
			if err != nil {
				return p.out, err
			}
			p.buf.advance(end + 4)
			p.head = req
			p.need = 0
			if cl := req.Header.Get("Content-Length"); cl != "" {
				n, err := strconv.Atoi(strings.TrimSpace(cl))
				if err != nil || n < 0 {
					return p.out, ErrMalformed
				}
				if n > maxBodyBytes {
					return p.out, ErrBodyTooLarge
				}
				p.need = n
			}
		}
		if p.need > p.buf.len() {
			return p.out, nil
		}
		if p.need > 0 {
			// The body must be copied out: the stream's backing array is
			// reused for subsequent pipelined requests.
			p.head.Body = append([]byte(nil), p.buf.bytes()[:p.need]...)
			p.buf.advance(p.need)
		}
		p.out = append(p.out, p.head)
		p.head = nil
		p.need = 0
	}
}

// Buffered returns the number of unconsumed bytes.
func (p *RequestParser) Buffered() int { return p.buf.len() }

// A head is converted to a string once and parsed in place: every token
// of the message is a substring of that one allocation, and the field
// list is sized from the line count.
func parseRequestHead(head []byte) (*Request, error) {
	line, fields, _ := strings.Cut(string(head), "\r\n")
	method, rest, ok := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok || !ok2 || !strings.HasPrefix(proto, "HTTP/") {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	req := &Request{Method: method, Target: target, Proto: proto}
	if err := parseFields(fields, &req.Header); err != nil {
		return nil, err
	}
	return req, nil
}

// parseFields parses the CRLF-separated field lines that follow a start
// line, through the blank line that ends the head.
func parseFields(lines string, h *Header) error {
	if n := strings.Count(lines, "\r\n") - 1; n > 0 {
		h.fields = make([]Field, 0, n)
	}
	for lines != "" {
		var line string
		line, lines, _ = strings.Cut(lines, "\r\n")
		if line == "" {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 1 {
			return fmt.Errorf("%w: bad header field %q", ErrMalformed, line)
		}
		h.Add(line[:colon], strings.TrimSpace(line[colon+1:]))
	}
	return nil
}

// bodyKind describes how a response body is delimited.
type bodyKind int

const (
	bodyNone bodyKind = iota
	bodyLength
	bodyUntilClose
)

// ResponseParser incrementally parses a pipelined stream of responses.
// Because body framing depends on the request (HEAD has no body), callers
// must push the method of each outstanding request in order.
type ResponseParser struct {
	buf stream
	// methods[next:] are the outstanding requests' methods, oldest
	// first; the array is reused once they are all answered.
	methods []string
	next    int
	out     []*Response // Feed's result, reused

	// BodyChunk, if non-nil, observes body bytes incrementally as they
	// are consumed, before the response completes. head is the response
	// whose body is arriving (its Body field is not yet set). This is
	// how the simulated robot parses HTML for inline links while the
	// page is still in flight.
	BodyChunk func(head *Response, chunk []byte)

	// KeepBody, if non-nil, is asked of each parsed head whether anything
	// will read the body. One it declines is still counted (BodyLen) and
	// streamed to BodyChunk, but never copied: Body stays nil. Nil keeps
	// every body.
	KeepBody func(head *Response) bool

	head    *Response
	kind    bodyKind
	need    int // for bodyLength: bytes still needed
	keep    bool
	body    []byte
	bodyLen int
}

// appendBody accumulates body bytes and fires the BodyChunk hook.
func (p *ResponseParser) appendBody(chunk []byte) {
	if len(chunk) == 0 {
		return
	}
	p.bodyLen += len(chunk)
	if p.keep {
		p.body = append(p.body, chunk...)
	}
	if p.BodyChunk != nil {
		p.BodyChunk(p.head, chunk)
	}
}

// PushExpectation records that a request with the given method was sent;
// the next responses are matched to expectations in FIFO order.
func (p *ResponseParser) PushExpectation(method string) {
	p.methods = append(p.methods, method)
}

// popExpectation returns the oldest outstanding request's method, and
// false when there is none.
func (p *ResponseParser) popExpectation() (string, bool) {
	if p.next == len(p.methods) {
		return "", false
	}
	method := p.methods[p.next]
	if p.next++; p.next == len(p.methods) {
		p.methods, p.next = p.methods[:0], 0
	}
	return method, true
}

// Pending returns the unconsumed buffer plus the body bytes of the most
// recent response: delivered work that is lost if the stream dies with
// that response in progress. Known quirk (TestPendingCountsLastCompletedBody,
// EXPERIMENTS.md): only the next head resets the count, so between
// responses it still reports the last completed body.
func (p *ResponseParser) Pending() int { return p.buf.len() + p.bodyLen }

// Feed appends data and returns all responses completed by it. What it
// has not consumed is copied; the caller may reuse data. The returned
// slice is the parser's own and is valid until the next Feed, which
// reuses its array; the responses in it are the caller's, and the parser
// never touches them again.
func (p *ResponseParser) Feed(data []byte) ([]*Response, error) {
	p.buf.push(data)
	defer p.buf.settle()
	clear(p.out)
	p.out = p.out[:0]
	for {
		if p.head == nil {
			end := bytes.Index(p.buf.bytes(), []byte("\r\n\r\n"))
			if end < 0 {
				return p.out, nil
			}
			resp, err := parseResponseHead(p.buf.bytes()[:end+4])
			if err != nil {
				return p.out, err
			}
			p.buf.advance(end + 4)
			method, ok := p.popExpectation()
			if !ok {
				return p.out, fmt.Errorf("%w: response with no outstanding request", ErrMalformed)
			}
			if resp.Header.Has("Transfer-Encoding") {
				return p.out, fmt.Errorf("%w: Transfer-Encoding %q", ErrMalformed, resp.Header.Get("Transfer-Encoding"))
			}
			p.head = resp
			p.body, p.bodyLen = nil, 0
			p.keep = p.KeepBody == nil || p.KeepBody(resp)
			p.kind, p.need = responseBodyKind(resp, method)
			if p.keep && p.kind == bodyLength && p.need > 0 {
				p.body = make([]byte, 0, min(p.need, maxBodyPrealloc))
			}
		}
		done, err := p.consumeBody()
		if err != nil {
			return p.out, err
		}
		if !done {
			return p.out, nil
		}
		p.head.Body, p.head.BodyLen = p.body, p.bodyLen
		p.out = append(p.out, p.head)
		p.head = nil
	}
}

// CloseEOF signals connection close. For a bodyUntilClose response this
// completes it; a response cut off in any other framing is an error.
func (p *ResponseParser) CloseEOF() (*Response, error) {
	if p.head == nil {
		if p.buf.len() > 0 {
			return nil, ErrTruncatedMessage
		}
		return nil, nil
	}
	if p.kind != bodyUntilClose {
		return nil, ErrTruncatedMessage
	}
	p.appendBody(p.buf.bytes())
	p.buf.reset()
	resp := p.head
	resp.Body, resp.BodyLen = p.body, p.bodyLen
	p.head = nil
	return resp, nil
}

func (p *ResponseParser) consumeBody() (bool, error) {
	switch p.kind {
	case bodyNone:
		return true, nil
	case bodyLength:
		if p.buf.len() < p.need {
			// Deliver the partial body for incremental consumers.
			p.need -= p.buf.len()
			p.appendBody(p.buf.bytes())
			p.buf.reset()
			return false, nil
		}
		p.appendBody(p.buf.bytes()[:p.need])
		p.buf.advance(p.need)
		p.need = 0
		return true, nil
	case bodyUntilClose:
		p.appendBody(p.buf.bytes())
		p.buf.reset()
		return false, nil
	}
	return false, ErrMalformed
}

func parseResponseHead(head []byte) (*Response, error) {
	line, fields, _ := strings.Cut(string(head), "\r\n")
	proto, rest, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return nil, fmt.Errorf("%w: bad status line %q", ErrMalformed, line)
	}
	status, reason, _ := strings.Cut(rest, " ")
	code, err := strconv.Atoi(status)
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: bad status code %q", ErrMalformed, status)
	}
	resp := &Response{Proto: proto, StatusCode: code, Reason: reason}
	if err := parseFields(fields, &resp.Header); err != nil {
		return nil, err
	}
	return resp, nil
}

// responseBodyKind applies the RFC 1945/2068 body-delimitation rules.
func responseBodyKind(resp *Response, method string) (bodyKind, int) {
	if method == "HEAD" || bodyless(resp.StatusCode) {
		return bodyNone, 0
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		n, err := strconv.Atoi(strings.TrimSpace(cl))
		if err == nil && n >= 0 && n <= maxBodyBytes {
			return bodyLength, n
		}
	}
	return bodyUntilClose, 0
}
