package httpmsg

import (
	"bytes"
	"testing"
)

// The fuzz targets cross-check the incremental parsers against
// themselves under different TCP segmentations: the set of completed
// messages — and whether the stream is rejected — must depend only on
// the byte stream, never on where Feed calls split it. CI runs each
// target briefly (-fuzztime) as a smoke test; the checked-in corpus
// below covers the cache-relevant shapes (conditional GETs, 304s,
// Cache-Control, all three HTTP-date forms).

// feedRequests drives a RequestParser over data in chunks of at most
// chunk bytes, collecting completed requests until the first error.
func feedRequests(data []byte, chunk int) ([]*Request, error) {
	var p RequestParser
	var out []*Request
	for len(data) > 0 {
		n := chunk
		if n > len(data) {
			n = len(data)
		}
		reqs, err := p.Feed(data[:n])
		out = append(out, reqs...)
		if err != nil {
			return out, err
		}
		data = data[n:]
	}
	return out, nil
}

// marshalRequests concatenates the wire form of parsed requests so two
// parse strategies can be compared byte-for-byte.
func marshalRequests(reqs []*Request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.Write(r.Marshal())
	}
	return b.Bytes()
}

func FuzzRequestParser(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"), uint8(1))
	f.Add([]byte("GET /style.css HTTP/1.1\r\nHost: a\r\nIf-None-Match: \"v1-css\"\r\nIf-Modified-Since: Fri, 20 Jun 1997 08:30:00 GMT\r\n\r\n"), uint8(3))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\nCache-Control: max-age=86400, no-transform\r\n\r\n"), uint8(5))
	f.Add([]byte("POST /cgi HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello"), uint8(2))
	f.Add([]byte("GET /a HTTP/1.1\r\nHost: a\r\n\r\nGET /b HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n"), uint8(7))
	f.Add([]byte("HEAD /big HTTP/1.1\r\nRange: bytes=0-99\r\n\r\n"), uint8(4))
	for _, shape := range headShapes {
		f.Add([]byte(shape), uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		checkHeadsAgainstOracle(t, data)
		whole, wholeErr := feedRequests(data, len(data)+1)
		n := int(chunk)%16 + 1
		split, splitErr := feedRequests(data, n)
		if (wholeErr == nil) != (splitErr == nil) {
			t.Fatalf("error depends on segmentation: whole=%v, %d-byte chunks=%v", wholeErr, n, splitErr)
		}
		if !bytes.Equal(marshalRequests(whole), marshalRequests(split)) {
			t.Fatalf("parsed requests depend on segmentation (%d-byte chunks)", n)
		}
		// Every accepted request must survive a marshal → reparse round
		// trip unchanged: Marshal output is what the simulated clients
		// put on the wire.
		for _, req := range whole {
			wire := req.Marshal()
			var p RequestParser
			again, err := p.Feed(wire)
			if err != nil || len(again) != 1 || p.Buffered() != 0 {
				t.Fatalf("reparse of marshaled request %q: %d requests, %d leftover, err %v",
					wire, len(again), p.Buffered(), err)
			}
			if !bytes.Equal(again[0].Marshal(), wire) {
				t.Fatalf("marshal round trip diverges:\n%q\nvs\n%q", wire, again[0].Marshal())
			}
		}
	})
}

// feedResponses drives a ResponseParser over data in chunks of at most
// chunk bytes with the given outstanding request methods, finishing
// with CloseEOF the way a connection teardown would.
func feedResponses(data []byte, chunk int, methods []string) ([]*Response, error) {
	var p ResponseParser
	for _, m := range methods {
		p.PushExpectation(m)
	}
	var out []*Response
	for len(data) > 0 {
		n := chunk
		if n > len(data) {
			n = len(data)
		}
		resps, err := p.Feed(data[:n])
		out = append(out, resps...)
		if err != nil {
			return out, err
		}
		data = data[n:]
	}
	resp, err := p.CloseEOF()
	if err != nil {
		return out, err
	}
	if resp != nil {
		out = append(out, resp)
	}
	return out, nil
}

func marshalResponses(resps []*Response) []byte {
	var b bytes.Buffer
	for _, r := range resps {
		b.Write(r.Marshal())
	}
	return b.Bytes()
}

func FuzzResponseParser(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"), uint8(1), uint8(0))
	f.Add([]byte("HTTP/1.1 304 Not Modified\r\nDate: Mon, 07 Jul 1997 10:00:00 GMT\r\nETag: \"v1\"\r\nCache-Control: max-age=86400\r\nExpires: Tue, 08 Jul 1997 10:00:00 GMT\r\n\r\n"), uint8(3), uint8(0))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"), uint8(2), uint8(0))
	f.Add([]byte("HTTP/1.0 200 OK\r\nLast-Modified: Monday, 07-Jul-97 10:00:00 GMT\r\n\r\nbody until close"), uint8(4), uint8(0))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 9999\r\n\r\n"), uint8(1), uint8(1))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"), uint8(6), uint8(0))
	for _, shape := range headShapes {
		f.Add([]byte(shape), uint8(2), uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8, methodBits uint8) {
		checkHeadsAgainstOracle(t, data)
		// Up to eight outstanding requests; each bit selects HEAD (which
		// changes body framing) over GET for the matching slot.
		methods := make([]string, 8)
		for i := range methods {
			if methodBits&(1<<i) != 0 {
				methods[i] = "HEAD"
			} else {
				methods[i] = "GET"
			}
		}
		whole, wholeErr := feedResponses(data, len(data)+1, methods)
		n := int(chunk)%16 + 1
		split, splitErr := feedResponses(data, n, methods)
		if (wholeErr == nil) != (splitErr == nil) {
			t.Fatalf("error depends on segmentation: whole=%v, %d-byte chunks=%v", wholeErr, n, splitErr)
		}
		if len(whole) != len(split) {
			t.Fatalf("%d responses whole vs %d with %d-byte chunks", len(whole), len(split), n)
		}
		if !bytes.Equal(marshalResponses(whole), marshalResponses(split)) {
			t.Fatalf("parsed responses depend on segmentation (%d-byte chunks)", n)
		}
	})
}

func FuzzParseDate(f *testing.F) {
	f.Add("Mon, 07 Jul 1997 10:00:00 GMT")  // RFC 1123
	f.Add("Monday, 07-Jul-97 10:00:00 GMT") // RFC 850
	f.Add("Mon Jul  7 10:00:00 1997")       // asctime
	f.Add("Fri, 20 Jun 1997 08:30:00 GMT")
	f.Add("Thu, 01 Jan 1970 00:00:00 GMT")
	f.Add("-1")
	f.Add("Mon, 07 Jul 1997 10:00:00 +0200")
	f.Fuzz(func(t *testing.T, s string) {
		tm, err := ParseDate(s)
		if err != nil {
			return
		}
		// Any accepted date must round-trip through the RFC 1123 form
		// formatDate generates, landing on the same instant.
		out := formatDate(tm)
		tm2, err := ParseDate(out)
		if err != nil {
			t.Fatalf("formatDate(%q parse) produced unparseable %q: %v", s, out, err)
		}
		if !tm2.Equal(tm) {
			t.Fatalf("date round trip moved: %q -> %v -> %q -> %v", s, tm, out, tm2)
		}
		// Comparison helpers must agree with the parsed ordering.
		if ModifiedSince(s, out) {
			t.Fatalf("ModifiedSince(%q, %q) true for equal instants", s, out)
		}
	})
}
