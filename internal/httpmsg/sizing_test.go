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
	chunked := *resp
	chunked.Chunked = true
	req := &Request{Method: "GET", Target: "/images/x.gif", Proto: Proto11}
	req.Header.Add("Host", "server")
	req.Header.Add("Accept", "*/*")
	for name, marshal := range map[string]func() []byte{
		"response": resp.Marshal,
		"chunked":  chunked.Marshal,
		"head":     func() []byte { return resp.MarshalFor("HEAD") },
		"request":  req.Marshal,
	} {
		if n := testing.AllocsPerRun(50, func() { marshal() }); n > 3 {
			t.Errorf("%s: Marshal allocates %v times, want at most 3", name, n)
		}
	}
}
