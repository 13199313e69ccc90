package httpmsg

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A declared Content-Length is only a claim: the largest the parser
// accepts, followed by ten bytes, must reserve no more than the
// preallocation cap, and the short body is still a truncated message.
func TestResponseBodyPreallocBounded(t *testing.T) {
	wire := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n0123456789", maxBodyBytes))
	var p ResponseParser
	p.PushExpectation("GET")
	var out []*Response
	var err error
	if n := allocatedBy(func() { out, err = p.Feed(wire) }); n >= 2<<20 {
		t.Errorf("a hostile Content-Length made the parser allocate %d bytes, want under 2 MB", n)
	}
	if err != nil || len(out) != 0 {
		t.Fatalf("Feed = %v, %v; want the response still pending", out, err)
	}
	if p.Pending() != 10 {
		t.Errorf("Pending = %d, want the 10 body bytes", p.Pending())
	}
	if _, err := p.CloseEOF(); !errors.Is(err, ErrTruncatedMessage) {
		t.Fatalf("CloseEOF = %v, want ErrTruncatedMessage", err)
	}
}

// A body is allocated once from its declared length, not grown by
// doubling as its segments arrive; one longer than the cap still grows
// to its full length.
func TestResponseBodySizedFromContentLength(t *testing.T) {
	for _, size := range []int{1, 42000, maxBodyPrealloc, maxBodyPrealloc + 300000} {
		body := bytes.Repeat([]byte("x"), size)
		resp := NewResponse(Proto11, 200)
		resp.Body = body
		wire := resp.Marshal()
		var p ResponseParser
		p.PushExpectation("GET")
		var got *Response
		allocated := allocatedBy(func() {
			for off := 0; off < len(wire); off += 1460 {
				out, err := p.Feed(wire[off:min(off+1460, len(wire))])
				if err != nil {
					t.Fatal(err)
				}
				if len(out) == 1 {
					got = out[0]
				}
			}
		})
		if got == nil || !bytes.Equal(got.Body, body) {
			t.Fatalf("%d-byte body did not survive the parser", size)
		}
		if size <= maxBodyPrealloc {
			if cap(got.Body) != size {
				t.Errorf("%d-byte body has capacity %d, want exactly its declared length", size, cap(got.Body))
			}
			// Doubling allocates about twice the body again on the way
			// up; one allocation costs the body rounded up to its size
			// class, plus the head's strings.
			if limit := uint64(size) + uint64(size)/2 + 8192; allocated > limit {
				t.Errorf("parsing a %d-byte body allocated %d bytes, want at most %d", size, allocated, limit)
			}
		}
	}
}

// Marshal sizes its buffer once: the message, and for a body the
// Content-Length digits (one more under the race detector; growing a
// zero buffer took 5 to 23).
func TestMarshalAllocatesOnce(t *testing.T) {
	resp := NewResponse(Proto11, 200)
	resp.Header.Add("Content-Type", "text/html")
	resp.Header.Add("ETag", `"3a5f2c77-a410"`)
	resp.Header.Add("Server", "Apache/1.2b10")
	resp.Body = bytes.Repeat([]byte("x"), 42000)
	req := &Request{Method: "GET", Target: "/images/x.gif", Proto: Proto11}
	req.Header.Add("Host", "server")
	req.Header.Add("Accept", "*/*")
	for name, marshal := range map[string]func() []byte{
		"response": resp.Marshal,
		"head":     func() []byte { return resp.MarshalFor("HEAD") },
		"request":  req.Marshal,
	} {
		if n := testing.AllocsPerRun(50, func() { marshal() }); n > 3 {
			t.Errorf("%s: Marshal allocates %v times, want at most 3", name, n)
		}
	}
}

// A message appended where there is room allocates nothing: its
// Content-Length is formatted in place, not through a string.
func TestAppendIntoRoomAllocatesNothing(t *testing.T) {
	resp := NewResponse(Proto11, 200)
	resp.Header.Add("Content-Type", "image/gif")
	resp.Body = bytes.Repeat([]byte("x"), 42000)
	req := &Request{Method: "POST", Target: "/cgi", Proto: Proto11, Body: bytes.Repeat([]byte("y"), 300)}
	buf := make([]byte, 0, 1<<16)
	for name, appendTo := range map[string]func(){
		"response head": func() { resp.AppendHeadFor(buf, "GET") },
		"request":       func() { req.AppendTo(buf) },
	} {
		if n := testing.AllocsPerRun(50, appendTo); n != 0 {
			t.Errorf("%s: appending allocates %v times, want 0", name, n)
		}
	}
}

// A parsed head costs three allocations — its string, the message and
// the field list sized from the line count — however many fields it has
// (the split-and-append parser took eleven for a server's usual eight).
func TestParsedHeadAllocations(t *testing.T) {
	resp := NewResponse(Proto11, 304)
	req := &Request{Method: "GET", Target: "/images/x.gif", Proto: Proto11}
	for i := 0; i < 12; i++ {
		resp.Header.Add(fmt.Sprintf("X-Field-%d", i), "value")
		req.Header.Add(fmt.Sprintf("X-Field-%d", i), "value")
	}
	respHead, reqHead := resp.Marshal(), req.Marshal()
	if n := testing.AllocsPerRun(50, func() { parseResponseHead(respHead) }); n > 3 {
		t.Errorf("parsing a response head allocates %v times, want at most 3", n)
	}
	if n := testing.AllocsPerRun(50, func() { parseRequestHead(reqHead) }); n > 3 {
		t.Errorf("parsing a request head allocates %v times, want at most 3", n)
	}
}

// A body KeepBody declines costs nothing in either framing: it is
// counted where TCP left it and still streamed to BodyChunk, and the
// parser allocates what the same response costs with an empty body.
func TestDiscardedBodyCostsNothing(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 30000)
	for name, shape := range map[string]func(*Response){
		"length":      func(*Response) {},
		"until-close": func(r *Response) { r.NoBodyLength = true },
	} {
		wire := map[bool][]byte{}
		for _, full := range []bool{false, true} {
			resp := NewResponse(Proto11, 200)
			resp.Header.Add("Content-Type", "image/gif")
			if shape(resp); full {
				resp.Body = body
			}
			wire[full] = resp.Marshal()
		}
		var streamed int
		var got *Response
		parse := func(wire []byte) func() {
			return func() {
				p := ResponseParser{
					KeepBody:  func(*Response) bool { return false },
					BodyChunk: func(_ *Response, chunk []byte) { streamed += len(chunk) },
				}
				p.PushExpectation("GET")
				streamed, got = 0, nil
				for off := 0; off < len(wire); off += 1460 {
					if out, _ := p.Feed(wire[off:min(off+1460, len(wire))]); len(out) == 1 {
						got = out[0]
					}
				}
				if got == nil {
					got, _ = p.CloseEOF()
				}
			}
		}
		empty := testing.AllocsPerRun(20, parse(wire[false]))
		full := testing.AllocsPerRun(20, parse(wire[true]))
		if full > empty {
			t.Errorf("%s: a discarded %d-byte body cost %v allocations (%v with it, %v without)",
				name, len(body), full-empty, full, empty)
		}
		if got == nil || got.Body != nil || got.BodyLen != len(body) || streamed != len(body) {
			t.Errorf("%s: discarded body: response %+v, %d bytes streamed; want nil Body, BodyLen and stream of %d",
				name, got, streamed, len(body))
		}
	}
}

// Pending is documented as the bytes of the in-progress response, but
// the body count is only reset by the next head: between responses it
// still reports the last completed body. The robot adds Pending to
// WastedBytes when a connection dies with requests outstanding, which is
// where the 49.2 KB "Waste" of the early-close HTTP/1.1 rows of
// faults_golden.txt comes from although nothing was fetched twice. This
// test pins the quirk — with bodies kept and with bodies counted — so
// that it is changed on purpose (ROADMAP item 3, with the goldens), not
// by a refactoring.
func TestPendingCountsLastCompletedBody(t *testing.T) {
	first := NewResponse(Proto11, 200)
	first.Body = bytes.Repeat([]byte("x"), 5000)
	second := NewResponse(Proto11, 200)
	second.Body = []byte("0123456789")
	secondWire := second.Marshal()
	for _, keep := range []bool{true, false} {
		p := ResponseParser{KeepBody: func(*Response) bool { return keep }}
		p.PushExpectation("GET")
		p.PushExpectation("GET")
		if out, err := p.Feed(first.Marshal()); err != nil || len(out) != 1 {
			t.Fatalf("keep=%v: Feed = %v, %v", keep, out, err)
		}
		if p.Pending() != 5000 {
			t.Errorf("keep=%v: Pending between responses = %d, want the 5000 bytes of the completed body (the pinned quirk)", keep, p.Pending())
		}
		// The next head resets the count; from then on Pending is what
		// its comment says.
		cut := len(secondWire) - 4
		if out, err := p.Feed(secondWire[:cut]); err != nil || len(out) != 0 {
			t.Fatalf("keep=%v: Feed = %v, %v", keep, out, err)
		}
		if p.Pending() != 6 {
			t.Errorf("keep=%v: Pending inside the second body = %d, want its 6 bytes so far", keep, p.Pending())
		}
	}
}
