package httpserver

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flatez"
	"repro/internal/httpmsg"
	"repro/internal/mux"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

var (
	tinyOnce sync.Once
	tinyVal  *webgen.Site
	tinyErr  error
)

// tinySite builds a small deterministic site once for all tests.
func tinySite(t *testing.T) *webgen.Site {
	t.Helper()
	tinyOnce.Do(func() {
		tinyVal, tinyErr = webgen.Microscape(webgen.Options{Seed: 5, HTMLBytes: 4000})
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyVal
}

// harness wires one client connection to a server and provides a raw
// request/response exchange helper.
type harness struct {
	t      *testing.T
	sim    *sim.Simulator
	client *tcpsim.Host
	server *Server
	site   *webgen.Site
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	s := sim.New()
	s.SetEventLimit(10_000_000)
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	serverHost := n.AddHost("server")
	link := netem.Config{PropagationDelay: time.Millisecond}
	n.ConnectHosts(client, serverHost, netem.NewAsymPath(s, "t", link, link))
	site := tinySite(t)
	srv := New(s, serverHost, 80, site, cfg, nil)
	return &harness{t: t, sim: s, client: client, server: srv, site: site}
}

// exchange sends raw request bytes on a fresh connection and returns the
// parsed responses (methods names the expected response framings).
func (h *harness) exchange(raw []byte, methods ...string) ([]*httpmsg.Response, error) {
	h.t.Helper()
	var parser httpmsg.ResponseParser
	for _, m := range methods {
		parser.PushExpectation(m)
	}
	var out []*httpmsg.Response
	var connErr error
	h.client.Dial("server", 80, tcpsim.Options{NoDelay: true}, &tcpsim.Callbacks{
		Connect: func(c *tcpsim.Conn) { c.Write(raw) },
		Data: func(c *tcpsim.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				connErr = err
				c.Abort()
				return
			}
			out = append(out, resps...)
			if len(out) == len(methods) {
				c.CloseWrite()
			}
		},
		PeerClose: func(c *tcpsim.Conn) { c.CloseWrite() },
		Error:     func(c *tcpsim.Conn, err error) { connErr = err },
	})
	h.sim.Run()
	return out, connErr
}

func get(target string, extra ...string) []byte {
	req := &httpmsg.Request{Method: "GET", Target: target, Proto: httpmsg.Proto11}
	req.Header.Add("Host", "server")
	for i := 0; i+1 < len(extra); i += 2 {
		req.Header.Add(extra[i], extra[i+1])
	}
	return req.Marshal()
}

func TestServesPage(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	resps, err := h.exchange(get("/"), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || resps[0].StatusCode != 200 {
		t.Fatalf("got %+v", resps)
	}
	if !bytes.Equal(resps[0].Body, h.site.HTML.Body) {
		t.Fatal("page body mismatch")
	}
	if ct := resps[0].Header.Get("Content-Type"); ct != "text/html" {
		t.Fatalf("content type %q", ct)
	}
	if resps[0].Header.Get("ETag") == "" || resps[0].Header.Get("Last-Modified") == "" {
		t.Fatal("missing validators")
	}
}

func Test404(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	resps, err := h.exchange(get("/nope.gif"), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resps[0].StatusCode)
	}
}

func Test501ForUnknownMethod(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	req := &httpmsg.Request{Method: "PUT", Target: "/", Proto: httpmsg.Proto11}
	resps, err := h.exchange(req.Marshal(), "PUT")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].StatusCode != 501 {
		t.Fatalf("status = %d, want 501", resps[0].StatusCode)
	}
}

func TestConditionalGETByETag(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	obj, _ := h.site.Object("/")
	resps, err := h.exchange(get("/", "If-None-Match", obj.ETag), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].StatusCode != 304 {
		t.Fatalf("status = %d, want 304", resps[0].StatusCode)
	}
	if len(resps[0].Body) != 0 {
		t.Fatal("304 carried a body")
	}
	// Mismatched tag: full response.
	resps, err = h.exchange(get("/", "If-None-Match", `"different"`), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].StatusCode != 200 {
		t.Fatalf("status = %d, want 200 for stale tag", resps[0].StatusCode)
	}
}

func TestConditionalGETByDate(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	obj, _ := h.site.Object("/")
	resps, err := h.exchange(get("/", "If-Modified-Since", obj.LastModified), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].StatusCode != 304 {
		t.Fatalf("status = %d, want 304", resps[0].StatusCode)
	}
}

func TestHEAD(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	req := &httpmsg.Request{Method: "HEAD", Target: "/", Proto: httpmsg.Proto11}
	resps, err := h.exchange(req.Marshal(), "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	r := resps[0]
	if r.StatusCode != 200 || len(r.Body) != 0 {
		t.Fatalf("HEAD: status %d, body %d bytes", r.StatusCode, len(r.Body))
	}
	if r.Header.Get("Content-Length") == "" {
		t.Fatal("HEAD lost entity length")
	}
}

func TestRangeRequests(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	obj, _ := h.site.Object("/")
	resps, err := h.exchange(get("/", "Range", "bytes=0-99", "If-Range", obj.ETag), "GET")
	if err != nil {
		t.Fatal(err)
	}
	r := resps[0]
	if r.StatusCode != 206 {
		t.Fatalf("status = %d, want 206", r.StatusCode)
	}
	if !bytes.Equal(r.Body, obj.Body[:100]) {
		t.Fatal("range body mismatch")
	}
	if cr := r.Header.Get("Content-Range"); !strings.HasPrefix(cr, "bytes 0-99/") {
		t.Fatalf("Content-Range %q", cr)
	}
	// Stale If-Range falls back to a full 200.
	resps, err = h.exchange(get("/", "Range", "bytes=0-99", "If-Range", `"stale"`), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].StatusCode != 200 {
		t.Fatalf("stale If-Range: status %d, want 200", resps[0].StatusCode)
	}
	// Suffix range.
	resps, err = h.exchange(get("/", "Range", "bytes=-10"), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].StatusCode != 206 || !bytes.Equal(resps[0].Body, obj.Body[len(obj.Body)-10:]) {
		t.Fatal("suffix range mishandled")
	}
	// Nonsense range ignored.
	resps, err = h.exchange(get("/", "Range", "bytes=banana"), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].StatusCode != 200 {
		t.Fatalf("bad range: status %d, want 200", resps[0].StatusCode)
	}
}

func TestDeflateNegotiation(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	resps, err := h.exchange(get("/", "Accept-Encoding", "deflate"), "GET")
	if err != nil {
		t.Fatal(err)
	}
	r := resps[0]
	if r.Header.Get("Content-Encoding") != "deflate" {
		t.Fatal("deflate not negotiated")
	}
	decoded, err := flatez.Decompress(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, h.site.HTML.Body) {
		t.Fatal("deflated body mismatch")
	}
	// Without Accept-Encoding: identity.
	resps, err = h.exchange(get("/"), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Header.Get("Content-Encoding") != "" {
		t.Fatal("deflate served without negotiation")
	}
	// Images are never transport-compressed (already GIF-compressed).
	imgPath := h.site.Paths()[1]
	resps, err = h.exchange(get(imgPath, "Accept-Encoding", "deflate"), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Header.Get("Content-Encoding") != "" {
		t.Fatal("image transport-compressed")
	}
}

func TestJigsawHeadersMoreVerbose(t *testing.T) {
	obj304 := func(profile Profile) int {
		h := newHarness(t, Config{Profile: profile, NoDelay: true})
		obj, _ := h.site.Object("/")
		resps, err := h.exchange(get("/", "If-None-Match", obj.ETag), "GET")
		if err != nil {
			t.Fatal(err)
		}
		return len(resps[0].Marshal())
	}
	jig, apa := obj304(ProfileJigsaw), obj304(ProfileApache)
	if jig <= apa {
		t.Fatalf("Jigsaw 304 (%dB) should exceed Apache's (%dB)", jig, apa)
	}
	if apa < 100 || apa > 200 {
		t.Errorf("Apache 304 = %dB, want ≈135", apa)
	}
	if jig < 180 || jig > 300 {
		t.Errorf("Jigsaw 304 = %dB, want ≈220", jig)
	}
}

func TestPipelinedRequestsOneConnection(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	paths := h.site.Paths()[:5]
	var raw []byte
	var methods []string
	for _, p := range paths {
		raw = append(raw, get(p)...)
		methods = append(methods, "GET")
	}
	resps, err := h.exchange(raw, methods...)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 5 {
		t.Fatalf("got %d responses, want 5", len(resps))
	}
	for i, r := range resps {
		obj, _ := h.site.Object(paths[i])
		if !bytes.Equal(r.Body, obj.Body) {
			t.Fatalf("response %d body mismatch (ordering?)", i)
		}
	}
	if h.server.Stats().Connections != 1 {
		t.Fatalf("connections = %d, want 1", h.server.Stats().Connections)
	}
}

func TestMaxRequestsPerConnAddsConnectionClose(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true, MaxRequestsPerConn: 2})
	raw := append(get("/"), get("/")...)
	resps, err := h.exchange(raw, "GET", "GET")
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("got %d responses", len(resps))
	}
	if !httpmsg.TokenListContains(resps[1].Header.Get("Connection"), "close") {
		t.Fatal("final response missing Connection: close")
	}
}

func TestHTTP10RequestsCloseConnection(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	req := &httpmsg.Request{Method: "GET", Target: "/", Proto: httpmsg.Proto10}
	resps, err := h.exchange(req.Marshal(), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Proto != httpmsg.Proto10 {
		t.Fatalf("response proto %q", resps[0].Proto)
	}
	if h.server.Stats().EarlyCloses != 1 {
		t.Fatalf("server did not close after HTTP/1.0 response")
	}
}

func TestMalformedRequestGets400(t *testing.T) {
	h := newHarness(t, Config{Profile: ProfileApache, NoDelay: true})
	resps, _ := h.exchange([]byte("GIBBERISH\r\n\r\n"), "GET")
	if len(resps) != 1 || resps[0].StatusCode != 400 {
		t.Fatalf("got %+v, want a 400", resps)
	}
	if h.server.Stats().ProtocolErrors != 1 {
		t.Fatal("protocol error not counted")
	}
}

func TestResponseBufferingCoalesces(t *testing.T) {
	// With pipelined 304s and a 4KB response buffer, many validations
	// travel per segment: far fewer server data segments than responses.
	s := sim.New()
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	serverHost := n.AddHost("server")
	link := netem.Config{PropagationDelay: 5 * time.Millisecond, BitsPerSecond: 10_000_000, MTU: 1500}
	n.ConnectHosts(client, serverHost, netem.NewAsymPath(s, "t", link, link))
	site := tinySite(t)
	New(s, serverHost, 80, site, Config{Profile: ProfileApache, NoDelay: true}, nil)

	dataSegs := 0
	n.PacketHook = func(ev tcpsim.PacketEvent) {
		if ev.Seg.From.Host == "server" && len(ev.Seg.Payload) > 0 {
			dataSegs++
		}
	}
	var raw []byte
	var methods []string
	responses := 0
	for _, p := range site.Paths() {
		obj, _ := site.Object(p)
		raw = append(raw, get(p, "If-None-Match", obj.ETag)...)
		methods = append(methods, "GET")
	}
	var parser httpmsg.ResponseParser
	for _, m := range methods {
		parser.PushExpectation(m)
	}
	client.Dial("server", 80, tcpsim.Options{NoDelay: true}, &tcpsim.Callbacks{
		Connect: func(c *tcpsim.Conn) { c.Write(raw) },
		Data: func(c *tcpsim.Conn, d []byte) {
			out, err := parser.Feed(d)
			if err != nil {
				t.Errorf("parse: %v", err)
				c.Abort()
				return
			}
			responses += len(out)
			if responses == len(methods) {
				c.CloseWrite()
			}
		},
		PeerClose: func(c *tcpsim.Conn) { c.CloseWrite() },
	})
	s.Run()
	if responses != len(methods) {
		t.Fatalf("got %d responses, want %d", responses, len(methods))
	}
	if dataSegs >= responses/2 {
		t.Fatalf("server sent %d data segments for %d responses; buffering broken", dataSegs, responses)
	}
}

// Every header name a response can carry, for both profiles and with the
// coding and range fields, lowers without allocating: responseFields
// lowers each one per framed response.
func TestResponseNamesLowerWithoutAllocating(t *testing.T) {
	obj, _ := tinySite(t).Object("/")
	for _, p := range []Profile{ProfileJigsaw, ProfileApache} {
		resp := CanonicalResponse(p, obj)
		resp.Header.Add("Content-Encoding", "deflate")
		resp.Header.Add("Content-Range", "bytes 0-9/10")
		for _, f := range resp.Header.Fields() {
			if n := testing.AllocsPerRun(10, func() { _ = mux.LowerName(f.Name) }); n != 0 {
				t.Errorf("%v: lowering %q allocates %.0f times", p, f.Name, n)
			}
		}
	}
}
