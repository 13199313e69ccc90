package httpmsg

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderOps(t *testing.T) {
	var h Header
	h.Add("Host", "www26.w3.org")
	h.Add("Accept", "*/*")
	h.Add("Accept", "text/html")
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if h.Get("host") != "www26.w3.org" {
		t.Fatal("case-insensitive Get failed")
	}
	if !h.Has("ACCEPT") {
		t.Fatal("Has failed")
	}
	h.Set("Accept", "image/gif")
	if h.Get("Accept") != "image/gif" {
		t.Fatal("Set did not replace first value")
	}
	h.Del("accept")
	if h.Has("Accept") || h.Len() != 1 {
		t.Fatal("Del failed")
	}
	clone := h.Clone()
	clone.Set("Host", "other")
	if h.Get("Host") != "www26.w3.org" {
		t.Fatal("Clone is not deep")
	}
	fields := &h.Fields()[0]
	h.Reset()
	if h.Len() != 0 || h.Has("Host") || clone.Get("Host") != "other" {
		t.Fatal("Reset failed")
	}
	if h.Add("Via", "1.1 proxy"); &h.Fields()[0] != fields {
		t.Fatal("Reset did not keep the field array")
	}
}

func TestTokenListContains(t *testing.T) {
	if !TokenListContains("Keep-Alive, Close", "close") {
		t.Fatal("should find close token")
	}
	if TokenListContains("closed", "close") {
		t.Fatal("substring must not match")
	}
	if TokenListContains("", "close") {
		t.Fatal("empty list must not match")
	}
}

func TestRequestMarshalExactBytes(t *testing.T) {
	req := &Request{Method: "GET", Target: "/", Proto: Proto11}
	req.Header.Add("Host", "h")
	got := string(req.Marshal())
	want := "GET / HTTP/1.1\r\nHost: h\r\n\r\n"
	if got != want {
		t.Fatalf("marshal = %q, want %q", got, want)
	}
}

func TestRequestBodyContentLength(t *testing.T) {
	req := &Request{Method: "POST", Target: "/x", Proto: Proto11, Body: []byte("hello")}
	got := string(req.Marshal())
	if !strings.Contains(got, "Content-Length: 5\r\n") {
		t.Fatalf("missing content length: %q", got)
	}
	if !strings.HasSuffix(got, "\r\n\r\nhello") {
		t.Fatalf("body misplaced: %q", got)
	}
}

func TestWantsCloseDefaults(t *testing.T) {
	r10 := &Request{Proto: Proto10}
	if !r10.WantsClose() {
		t.Fatal("HTTP/1.0 default should close")
	}
	r10.Header.Add("Connection", "Keep-Alive")
	if r10.WantsClose() {
		t.Fatal("HTTP/1.0 keep-alive should persist")
	}
	r11 := &Request{Proto: Proto11}
	if r11.WantsClose() {
		t.Fatal("HTTP/1.1 default should persist")
	}
	r11.Header.Add("Connection", "close")
	if !r11.WantsClose() {
		t.Fatal("HTTP/1.1 Connection: close should close")
	}
}

func TestResponseMarshalContentLength(t *testing.T) {
	resp := NewResponse(Proto11, 200)
	resp.Body = []byte("body bytes")
	got := string(resp.Marshal())
	if !strings.HasPrefix(got, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("bad status line: %q", got)
	}
	if !strings.Contains(got, "Content-Length: 10\r\n") {
		t.Fatalf("missing content length: %q", got)
	}
}

func TestResponse304HasNoBodyFraming(t *testing.T) {
	resp := NewResponse(Proto11, 304)
	resp.Header.Add("ETag", `"abc"`)
	resp.Body = []byte("must not appear")
	got := string(resp.Marshal())
	if strings.Contains(got, "must not appear") || strings.Contains(got, "Content-Length") {
		t.Fatalf("304 carried a body: %q", got)
	}
}

func TestHeadResponseKeepsLengthDropsBody(t *testing.T) {
	resp := NewResponse(Proto11, 200)
	resp.Body = []byte("0123456789")
	got := string(resp.MarshalFor("HEAD"))
	if strings.Contains(got, "0123456789") {
		t.Fatalf("HEAD response carried body: %q", got)
	}
	if !strings.Contains(got, "Content-Length: 10\r\n") {
		t.Fatalf("HEAD response lost entity length: %q", got)
	}
}

// The head AppendHeadFor appends, then the body it returns, is what
// MarshalFor returns, and the body is the response's own, not a copy.
func TestAppendHeadForSplitsMarshal(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 500)
	for _, tc := range []struct {
		code   int
		method string
		split  bool // the body is returned apart from the head
	}{
		{200, "GET", true},
		{200, "HEAD", false},
		{304, "GET", false},
	} {
		resp := NewResponse(Proto11, tc.code)
		resp.Header.Add("Server", "Apache/1.2b10")
		resp.Body = body
		prefix := []byte("previous response")
		head, rest := resp.AppendHeadFor(prefix[:len(prefix):len(prefix)], tc.method)
		if !bytes.HasPrefix(head, prefix) {
			t.Fatalf("%+v: head does not extend dst", tc)
		}
		got := append(head[len(prefix):len(head):len(head)], rest...)
		if want := resp.MarshalFor(tc.method); !bytes.Equal(got, want) {
			t.Errorf("%+v: head+body is\n%q\nwant\n%q", tc, got, want)
		}
		if tc.split != (len(rest) > 0) || tc.split && &rest[0] != &body[0] {
			t.Errorf("%+v: body returned apart = %v, aliasing the response's; want %v", tc, len(rest) > 0, tc.split)
		}
	}
}

// Nothing sends chunked transfer coding, so a response that carries
// Transfer-Encoding, in any coding, fails as malformed rather than being
// read with the wrong framing.
func TestTransferEncodingIsMalformed(t *testing.T) {
	for _, te := range []string{"chunked", "gzip, chunked", "identity"} {
		wire := "HTTP/1.1 200 OK\r\nTransfer-Encoding: " + te + "\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
		var p ResponseParser
		p.PushExpectation("GET")
		got, err := p.Feed([]byte(wire))
		if !errors.Is(err, ErrMalformed) || len(got) != 0 {
			t.Errorf("Transfer-Encoding %q: %d responses, err %v; want ErrMalformed", te, len(got), err)
		}
	}
}

func TestRequestParserPipelined(t *testing.T) {
	var wire []byte
	for i := 0; i < 5; i++ {
		r := &Request{Method: "GET", Target: fmt.Sprintf("/img%d.gif", i), Proto: Proto11}
		r.Header.Add("Host", "microscape")
		wire = append(wire, r.Marshal()...)
	}
	var p RequestParser
	got, err := p.Feed(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("parsed %d requests, want 5", len(got))
	}
	for i, r := range got {
		if r.Target != fmt.Sprintf("/img%d.gif", i) {
			t.Fatalf("request %d target %q out of order", i, r.Target)
		}
	}
}

func TestRequestParserIncrementalByteAtATime(t *testing.T) {
	req := &Request{Method: "POST", Target: "/submit", Proto: Proto11, Body: []byte("payload")}
	req.Header.Add("Host", "h")
	wire := req.Marshal()
	var p RequestParser
	var got []*Request
	for _, b := range wire {
		out, err := p.Feed([]byte{b})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d requests, want 1", len(got))
	}
	if string(got[0].Body) != "payload" || got[0].Method != "POST" {
		t.Fatalf("bad parse: %+v", got[0])
	}
	if p.Buffered() != 0 {
		t.Fatalf("leftover %d bytes", p.Buffered())
	}
}

// Feed's result is the parser's own slice, whose array the next Feed
// reuses; the messages in it are the caller's, which a later Feed leaves
// as they were, and once a Feed has returned, the parser holds no
// pointer to a message an earlier one handed out.
func TestFeedReusesItsResultSlice(t *testing.T) {
	reqWire := func(targets ...string) []byte {
		var b []byte
		for _, target := range targets {
			r := &Request{Method: "GET", Target: target, Proto: Proto11}
			r.Header.Add("Host", "microscape")
			b = r.AppendTo(b)
		}
		return b
	}
	respWire := func(bodies ...string) []byte {
		var b []byte
		for _, body := range bodies {
			r := NewResponse(Proto11, 200)
			r.Header.Add("ETag", `"`+body+`"`)
			r.Body = []byte(body)
			b = r.AppendFor(b, "GET")
		}
		return b
	}
	t.Run("requests", func(t *testing.T) {
		var p RequestParser
		first, err := p.Feed(reqWire("/a", "/b"))
		if err != nil || len(first) != 2 {
			t.Fatalf("first Feed = %v, %v", first, err)
		}
		kept := append([]*Request(nil), first...)
		want := marshalRequests(kept)
		second, err := p.Feed(reqWire("/c", "/d"))
		if err != nil || len(second) != 2 {
			t.Fatalf("second Feed = %v, %v", second, err)
		}
		if &first[0] != &second[0] {
			t.Error("the second Feed did not reuse the first's result array")
		}
		if got := marshalRequests(kept); !bytes.Equal(got, want) || kept[0] == second[0] || kept[1] == second[1] {
			t.Errorf("the second Feed changed the first's requests:\n%q\nwant\n%q", got, want)
		}
		if out, err := p.Feed([]byte("GET /e HT")); err != nil || len(out) != 0 {
			t.Fatalf("partial Feed = %v, %v", out, err)
		}
		for _, r := range p.out[:cap(p.out)] {
			if r != nil {
				t.Fatalf("the parser still holds request %s", r.Target)
			}
		}
	})
	t.Run("responses", func(t *testing.T) {
		var p ResponseParser
		for i := 0; i < 5; i++ {
			p.PushExpectation("GET")
		}
		first, err := p.Feed(respWire("one", "two"))
		if err != nil || len(first) != 2 {
			t.Fatalf("first Feed = %v, %v", first, err)
		}
		kept := append([]*Response(nil), first...)
		second, err := p.Feed(respWire("three", "four"))
		if err != nil || len(second) != 2 {
			t.Fatalf("second Feed = %v, %v", second, err)
		}
		if &first[0] != &second[0] {
			t.Error("the second Feed did not reuse the first's result array")
		}
		for i, body := range []string{"one", "two"} {
			if r := kept[i]; string(r.Body) != body || r.BodyLen != len(body) || r.Header.Get("ETag") != `"`+body+`"` || r == second[i] {
				t.Errorf("response %d after the second Feed: %q, ETag %s; want %q", i, r.Body, r.Header.Get("ETag"), body)
			}
		}
		if out, err := p.Feed([]byte("HTTP/1.1 200")); err != nil || len(out) != 0 {
			t.Fatalf("partial Feed = %v, %v", out, err)
		}
		for _, r := range p.out[:cap(p.out)] {
			if r != nil {
				t.Fatalf("the parser still holds response %q", r.Body)
			}
		}
	})
}

func TestResponseParserHeadHasNoBody(t *testing.T) {
	// A HEAD response advertises Content-Length but sends no body; the
	// parser must not wait for body bytes.
	resp := NewResponse(Proto11, 200)
	resp.Body = []byte("0123456789")
	wire := resp.MarshalFor("HEAD")
	var p ResponseParser
	p.PushExpectation("HEAD")
	p.PushExpectation("GET")
	got, err := p.Feed(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Body) != 0 {
		t.Fatal("HEAD response mishandled")
	}
	// The following GET response flows straight through.
	resp2 := NewResponse(Proto11, 200)
	resp2.Body = []byte("abc")
	got, err = p.Feed(resp2.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Body) != "abc" {
		t.Fatal("pipelined GET after HEAD mishandled")
	}
}

func TestResponseUntilCloseFraming(t *testing.T) {
	wire := "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\npartial body then close"
	var p ResponseParser
	p.PushExpectation("GET")
	got, err := p.Feed([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("until-close response completed early")
	}
	resp, err := p.CloseEOF()
	if err != nil {
		t.Fatal(err)
	}
	if resp == nil || string(resp.Body) != "partial body then close" {
		t.Fatalf("CloseEOF got %+v", resp)
	}
}

func TestCloseEOFTruncatedLengthBody(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly a few bytes"
	var p ResponseParser
	p.PushExpectation("GET")
	if _, err := p.Feed([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CloseEOF(); !errors.Is(err, ErrTruncatedMessage) {
		t.Fatalf("CloseEOF = %v, want ErrTruncatedMessage", err)
	}
}

func TestCloseEOFCleanIdle(t *testing.T) {
	var p ResponseParser
	resp, err := p.CloseEOF()
	if err != nil || resp != nil {
		t.Fatalf("idle CloseEOF = %v, %v", resp, err)
	}
}

func TestResponseWithoutExpectationErrors(t *testing.T) {
	var p ResponseParser
	_, err := p.Feed([]byte("HTTP/1.1 200 OK\r\n\r\n"))
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestMalformedInput(t *testing.T) {
	cases := []string{
		"NOT-HTTP\r\n\r\n",
		"GET /\r\n\r\n",
		"GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n",
	}
	for _, c := range cases {
		var p RequestParser
		if _, err := p.Feed([]byte(c)); !errors.Is(err, ErrMalformed) {
			t.Errorf("Feed(%q) err = %v, want ErrMalformed", c, err)
		}
	}
	var rp ResponseParser
	rp.PushExpectation("GET")
	if _, err := rp.Feed([]byte("HTTP/1.1 9xx Nope\r\n\r\n")); !errors.Is(err, ErrMalformed) {
		t.Errorf("bad status code accepted: %v", err)
	}
}

func TestStatusTextCoverage(t *testing.T) {
	for _, code := range []int{200, 206, 304, 400, 404, 412, 500, 501, 505} {
		if StatusText(code) == "Unknown" {
			t.Errorf("StatusText(%d) unknown", code)
		}
	}
	if StatusText(299) != "Unknown" {
		t.Error("unexpected reason for 299")
	}
}

// Property: any pipeline of responses with mixed framings (bodies, and
// the bodiless replies to HEAD) round-trips through the parser regardless
// of how the byte stream is split.
func TestPropertyResponsePipelineSplitInvariance(t *testing.T) {
	f := func(bodies [][]byte, splitSeed uint32, headMask uint8) bool {
		if len(bodies) == 0 || len(bodies) > 8 {
			return true
		}
		var wire []byte
		var methods []string
		for i, body := range bodies {
			if len(body) > 2048 {
				body = body[:2048]
			}
			method := "GET"
			if headMask&(1<<uint(i)) != 0 {
				method = "HEAD"
			}
			resp := NewResponse(Proto11, 200)
			resp.Body = body
			wire = append(wire, resp.MarshalFor(method)...)
			methods = append(methods, method)
		}
		var p ResponseParser
		for _, m := range methods {
			p.PushExpectation(m)
		}
		var got []*Response
		// Deterministic pseudo-random split points.
		seed := splitSeed
		for off := 0; off < len(wire); {
			seed = seed*1664525 + 1013904223
			n := int(seed%97) + 1
			if off+n > len(wire) {
				n = len(wire) - off
			}
			out, err := p.Feed(wire[off : off+n])
			if err != nil {
				return false
			}
			got = append(got, out...)
			off += n
		}
		if len(got) != len(bodies) {
			return false
		}
		for i := range got {
			want := bodies[i]
			if len(want) > 2048 {
				want = want[:2048]
			}
			if methods[i] == "HEAD" {
				want = nil
			}
			if !bytes.Equal(got[i].Body, want) {
				return false
			}
		}
		return p.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: requests round-trip exactly (method, target, headers, body).
func TestPropertyRequestRoundTrip(t *testing.T) {
	f := func(nHeaders uint8, body []byte) bool {
		req := &Request{Method: "GET", Target: "/x", Proto: Proto11}
		if len(body) > 0 {
			req.Method = "POST"
			req.Body = body
		}
		for i := 0; i < int(nHeaders)%10; i++ {
			req.Header.Add(fmt.Sprintf("X-H%d", i), fmt.Sprintf("v%d", i))
		}
		var p RequestParser
		out, err := p.Feed(req.Marshal())
		if err != nil || len(out) != 1 {
			return false
		}
		got := out[0]
		if got.Method != req.Method || got.Target != req.Target || !bytes.Equal(got.Body, req.Body) {
			return false
		}
		for i := 0; i < int(nHeaders)%10; i++ {
			if got.Header.Get(fmt.Sprintf("X-H%d", i)) != fmt.Sprintf("v%d", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseDateFormats(t *testing.T) {
	want := time.Date(1994, time.November, 6, 8, 49, 37, 0, time.UTC)
	cases := []string{
		"Sun, 06 Nov 1994 08:49:37 GMT",  // RFC 1123
		"Sunday, 06-Nov-94 08:49:37 GMT", // RFC 850
		"Sun Nov  6 08:49:37 1994",       // asctime
	}
	for _, c := range cases {
		got, err := ParseDate(c)
		if err != nil {
			t.Errorf("ParseDate(%q): %v", c, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("ParseDate(%q) = %v, want %v", c, got, want)
		}
	}
	if _, err := ParseDate("yesterday"); err == nil {
		t.Error("garbage date accepted")
	}
}

// formatDate renders t as an RFC 1123 HTTP-date (always GMT), the form
// ParseDate tries first.
func formatDate(t time.Time) string { return t.UTC().Format(httpDateFormats[0]) }

func TestFormatDateRoundTrip(t *testing.T) {
	now := time.Date(1997, time.June, 24, 12, 0, 0, 0, time.UTC)
	s := formatDate(now)
	if s != "Tue, 24 Jun 1997 12:00:00 GMT" {
		t.Fatalf("formatDate = %q", s)
	}
	back, err := ParseDate(s)
	if err != nil || !back.Equal(now) {
		t.Fatalf("round trip: %v, %v", back, err)
	}
}

func TestModifiedSince(t *testing.T) {
	lm := "Fri, 20 Jun 1997 08:30:00 GMT"
	if ModifiedSince(lm, lm) {
		t.Error("equal dates should be not-modified")
	}
	if ModifiedSince(lm, "Sat, 21 Jun 1997 00:00:00 GMT") {
		t.Error("IMS after LM should be not-modified")
	}
	if !ModifiedSince(lm, "Thu, 19 Jun 1997 00:00:00 GMT") {
		t.Error("IMS before LM should be modified")
	}
	if !ModifiedSince("garbage", lm) || !ModifiedSince(lm, "garbage") {
		t.Error("unparseable dates must be treated as modified")
	}
	// Cross-format comparison works.
	if ModifiedSince(lm, "Friday, 20-Jun-97 08:30:00 GMT") {
		t.Error("RFC 850 equivalent date should compare equal")
	}
}
