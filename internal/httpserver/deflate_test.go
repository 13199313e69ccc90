package httpserver

import (
	"bytes"
	"testing"

	"repro/internal/flatez"
	"repro/internal/httpmsg"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// deflateRequest is a GET of the page from a client that accepts deflate.
func deflateRequest() *httpmsg.Request {
	req := &httpmsg.Request{Method: "GET", Target: "/", Proto: httpmsg.Proto11}
	req.Header.Add("Host", "server")
	req.Header.Add("Accept-Encoding", "deflate")
	return req
}

// Servers do not compress: every deflate server on a site serves the
// site's one artifact, the same bytes in memory, and starting another
// costs a handful of allocations however large the page.
func TestDeflateServersShareTheSitesArtifact(t *testing.T) {
	site := tinySite(t)
	s := sim.New()
	host := tcpsim.NewNetwork(s).AddHost("server")
	cfg := Config{Profile: ProfileApache}
	port := 80
	start := func() *Server {
		port++
		return New(s, host, port, site, cfg, nil)
	}
	a := start().respond(deflateRequest(), new(httpmsg.Response))
	b := start().respond(deflateRequest(), new(httpmsg.Response))
	if a.Header.Get("Content-Encoding") != "deflate" || len(a.Body) == 0 {
		t.Fatalf("deflate not served: %+v", a.Header)
	}
	if &a.Body[0] != &b.Body[0] || len(a.Body) != len(b.Body) {
		t.Error("two servers on one site serve separately compressed bodies")
	}
	page, err := flatez.Decompress(a.Body)
	if err != nil || !bytes.Equal(page, site.HTML.Body) {
		t.Errorf("served body does not inflate to the page (err %v)", err)
	}
	// flatez.Compress alone allocates more than a hundred times on this
	// small page.
	if n := testing.AllocsPerRun(20, func() { start() }); n > 12 {
		t.Errorf("New on a deflate site allocates %v times, want a small constant", n)
	}
}

// BenchmarkServerNewDeflate is the per-run cost of a deflate cell's
// server on the real page: core.Run builds a network and starts a server
// for every scenario it runs.
func BenchmarkServerNewDeflate(b *testing.B) {
	site, err := webgen.Microscape(webgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New()
	cfg := Config{Profile: ProfileApache}
	req := deflateRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := tcpsim.NewNetwork(s).AddHost("server")
		srv := New(s, host, 80, site, cfg, nil)
		if resp := srv.respond(req, new(httpmsg.Response)); resp.Header.Get("Content-Encoding") != "deflate" {
			b.Fatal("deflate not served")
		}
	}
}
