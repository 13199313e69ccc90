package httpmsg_test

import (
	"testing"

	"repro/internal/httpmsg"
	"repro/internal/httpserver"
	"repro/internal/webgen"
)

// pageResponses is one first-time page load's worth of responses: the
// Microscape page and its 42 images as the Apache profile serves them.
func pageResponses(b *testing.B) []*httpmsg.Response {
	b.Helper()
	site, err := webgen.Microscape(webgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var out []*httpmsg.Response
	for _, path := range site.Paths() {
		obj, _ := site.Object(path)
		out = append(out, httpserver.CanonicalResponse(httpserver.ProfileApache, obj))
	}
	return out
}

// BenchmarkResponseParserPage parses those 43 responses, pipelined on one
// connection and arriving in segment-sized pieces, as the robot does.
func BenchmarkResponseParserPage(b *testing.B) {
	responses := pageResponses(b)
	var wire []byte
	for _, r := range responses {
		wire = append(wire, r.Marshal()...)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p httpmsg.ResponseParser
		for range responses {
			p.PushExpectation("GET")
		}
		got := 0
		for off := 0; off < len(wire); off += 1460 {
			out, err := p.Feed(wire[off:min(off+1460, len(wire))])
			if err != nil {
				b.Fatal(err)
			}
			got += len(out)
		}
		if got != len(responses) {
			b.Fatalf("parsed %d of %d responses", got, len(responses))
		}
	}
}

// BenchmarkMarshalPage serializes the same 43 responses, as the server
// does.
func BenchmarkMarshalPage(b *testing.B) {
	responses := pageResponses(b)
	n := 0
	for _, r := range responses {
		n += len(r.Marshal())
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range responses {
			if len(r.Marshal()) == 0 {
				b.Fatal("empty message")
			}
		}
	}
}
