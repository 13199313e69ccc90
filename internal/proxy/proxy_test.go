package proxy

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/httpmsg"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

// rig is a three-host testbed: client — LAN — proxy — LAN — origin.
type rig struct {
	s      *sim.Simulator
	net    *tcpsim.Network
	client *tcpsim.Host
	proxy  *Proxy
	origin *httpserver.Server
	site   *webgen.Site
	cache  *cache.Cache
}

func newRig(t *testing.T, primeWarm, primeStale bool) *rig {
	t.Helper()
	site, err := webgen.Microscape(webgen.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	net := tcpsim.NewNetwork(s)
	clientHost := net.AddHost("client")
	proxyHost := net.AddHost("proxy")
	serverHost := net.AddHost("server")
	net.ConnectHosts(clientHost, proxyHost, netem.NewEnvPath(s, netem.LAN, netem.PathOptions{}))
	net.ConnectHosts(proxyHost, serverHost, netem.NewEnvPath(s, netem.LAN, netem.PathOptions{}))

	origin := httpserver.New(s, serverHost, 80, site,
		httpserver.Config{Profile: httpserver.ProfileApache, NoDelay: true}, nil, 0)
	c := cache.New(8<<20, func() sim.Time { return s.Now() })
	if primeWarm || primeStale {
		for _, path := range site.Paths() {
			obj, _ := site.Object(path)
			e := c.Store(path, httpserver.CanonicalResponse(httpserver.ProfileApache, obj))
			if e == nil {
				t.Fatalf("priming %s rejected", path)
			}
			if primeStale {
				c.Expire(e)
			}
		}
	}
	px := New(s, proxyHost, 3128, "server", 80, Config{Cache: c}, nil, 0)
	return &rig{s: s, net: net, client: clientHost, proxy: px, origin: origin, site: site, cache: c}
}

// testClient is a raw pipelining HTTP client for driving the proxy.
type testClient struct {
	t      *testing.T
	conn   *tcpsim.Conn
	parser httpmsg.ResponseParser
	resps  []*httpmsg.Response
	onResp func(*httpmsg.Response)
}

func dialClient(t *testing.T, r *rig) *testClient {
	tc := &testClient{t: t}
	tc.conn = r.client.Dial("proxy", 3128, tcpsim.Options{NoDelay: true}, &tcpsim.Callbacks{
		Data: func(c *tcpsim.Conn, data []byte) {
			resps, err := tc.parser.Feed(data)
			if err != nil {
				t.Errorf("client parse: %v", err)
				c.Abort()
				return
			}
			for _, resp := range resps {
				tc.resps = append(tc.resps, resp)
				if tc.onResp != nil {
					tc.onResp(resp)
				}
			}
		},
		PeerClose: func(c *tcpsim.Conn) { c.CloseWrite() },
		Error:     func(c *tcpsim.Conn, err error) {},
		Close:     func(c *tcpsim.Conn) {},
	})
	return tc
}

func (tc *testClient) get(path string, headers ...[2]string) {
	req := &httpmsg.Request{Method: "GET", Target: path, Proto: httpmsg.Proto11}
	req.Header.Add("Host", "proxy")
	for _, h := range headers {
		req.Header.Add(h[0], h[1])
	}
	tc.parser.PushExpectation("GET")
	tc.conn.Write(req.Marshal())
}

func TestMissThenHit(t *testing.T) {
	r := newRig(t, false, false)
	obj, _ := r.site.Object("/")
	tc := dialClient(t, r)
	tc.onResp = func(resp *httpmsg.Response) {
		if len(tc.resps) == 1 {
			tc.get("/") // second fetch after the first completed: a pure hit
		} else {
			tc.conn.CloseWrite()
		}
	}
	r.s.Schedule(0, func() { tc.get("/") })
	r.s.Run()

	if len(tc.resps) != 2 {
		t.Fatalf("got %d responses, want 2", len(tc.resps))
	}
	for i, resp := range tc.resps {
		if resp.StatusCode != 200 || string(resp.Body) != string(obj.Body) {
			t.Fatalf("response %d: status %d, body %d bytes", i, resp.StatusCode, len(resp.Body))
		}
		if got := resp.Header.Get("Via"); got != "1.1 proxy" {
			t.Fatalf("response %d Via = %q", i, got)
		}
	}
	if tc.resps[0].Header.Has("Age") {
		t.Fatal("miss response carries Age")
	}
	if !tc.resps[1].Header.Has("Age") {
		t.Fatal("hit response lacks Age")
	}
	st := r.proxy.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.UpstreamRequests != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 upstream request", st)
	}
	if st.BytesFromCache != int64(len(obj.Body)) {
		t.Fatalf("BytesFromCache = %d, want %d", st.BytesFromCache, len(obj.Body))
	}
	if r.origin.Stats().Requests != 1 {
		t.Fatalf("origin saw %d requests, want 1", r.origin.Stats().Requests)
	}
	// The upstream request announced the intermediary.
	if st.UpstreamSockets != 1 {
		t.Fatalf("UpstreamSockets = %d, want 1", st.UpstreamSockets)
	}
}

func TestCollapsedForwarding(t *testing.T) {
	r := newRig(t, false, false)
	img := r.site.Paths()[1] // first inline object
	a := dialClient(t, r)
	b := dialClient(t, r)
	r.s.Schedule(0, func() {
		a.get(img)
		b.get(img)
	})
	r.s.Run()

	if len(a.resps) != 1 || len(b.resps) != 1 {
		t.Fatalf("responses: a=%d b=%d, want 1 each", len(a.resps), len(b.resps))
	}
	if a.resps[0].StatusCode != 200 || b.resps[0].StatusCode != 200 {
		t.Fatalf("status codes %d/%d", a.resps[0].StatusCode, b.resps[0].StatusCode)
	}
	st := r.proxy.Stats()
	if st.UpstreamRequests != 1 {
		t.Fatalf("UpstreamRequests = %d, want 1 (collapsed)", st.UpstreamRequests)
	}
	if st.Collapsed != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses with 1 collapsed", st)
	}
	if r.origin.Stats().Requests != 1 {
		t.Fatalf("origin saw %d requests, want 1", r.origin.Stats().Requests)
	}
}

func TestStaleRevalidation(t *testing.T) {
	r := newRig(t, false, true) // warm but expired
	obj, _ := r.site.Object("/")
	tc := dialClient(t, r)
	tc.onResp = func(resp *httpmsg.Response) { tc.conn.CloseWrite() }
	r.s.Schedule(0, func() { tc.get("/") })
	r.s.Run()

	if len(tc.resps) != 1 || tc.resps[0].StatusCode != 200 {
		t.Fatalf("got %d responses (first status %d), want one 200", len(tc.resps), tc.resps[0].StatusCode)
	}
	if string(tc.resps[0].Body) != string(obj.Body) {
		t.Fatal("revalidated body differs from origin object")
	}
	st := r.proxy.Stats()
	if st.Revalidations != 1 || st.RevalidationHits != 1 {
		t.Fatalf("stats = %+v, want one revalidation hit", st)
	}
	if st.BytesFromCache != int64(len(obj.Body)) || st.BytesFromUpstream != 0 {
		t.Fatalf("byte split = cache %d / upstream %d, want %d / 0",
			st.BytesFromCache, st.BytesFromUpstream, len(obj.Body))
	}
	if r.origin.Stats().NotModified != 1 {
		t.Fatalf("origin NotModified = %d, want 1", r.origin.Stats().NotModified)
	}
}

func TestLocalNotModified(t *testing.T) {
	r := newRig(t, true, false) // warm and fresh
	obj, _ := r.site.Object("/")
	tc := dialClient(t, r)
	tc.onResp = func(resp *httpmsg.Response) { tc.conn.CloseWrite() }
	r.s.Schedule(0, func() {
		tc.get("/", [2]string{"If-None-Match", obj.ETag})
	})
	r.s.Run()

	if len(tc.resps) != 1 || tc.resps[0].StatusCode != 304 {
		t.Fatalf("got %d responses (status %d), want one 304", len(tc.resps), tc.resps[0].StatusCode)
	}
	st := r.proxy.Stats()
	if st.LocalNotModified != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want a local 304 hit", st)
	}
	if st.UpstreamRequests != 0 {
		t.Fatalf("UpstreamRequests = %d, want 0", st.UpstreamRequests)
	}
	if r.origin.Stats().Requests != 0 {
		t.Fatalf("origin saw %d requests, want 0", r.origin.Stats().Requests)
	}
}

func TestWarmCacheServesWholeSite(t *testing.T) {
	r := newRig(t, true, false)
	paths := r.site.Paths()
	tc := dialClient(t, r)
	r.s.Schedule(0, func() {
		for _, p := range paths {
			tc.get(p)
		}
		tc.conn.CloseWrite()
	})
	r.s.Run()

	if len(tc.resps) != len(paths) {
		t.Fatalf("got %d responses, want %d", len(tc.resps), len(paths))
	}
	for i, resp := range tc.resps {
		obj, _ := r.site.Object(paths[i])
		if resp.StatusCode != 200 || len(resp.Body) != len(obj.Body) {
			t.Fatalf("response %d (%s): status %d, %d bytes, want 200 with %d",
				i, paths[i], resp.StatusCode, len(resp.Body), len(obj.Body))
		}
	}
	st := r.proxy.Stats()
	if st.Hits != len(paths) || st.UpstreamRequests != 0 {
		t.Fatalf("stats = %+v, want %d hits and no upstream traffic", st, len(paths))
	}
}

func TestHopByHopStripped(t *testing.T) {
	// A client's Connection: close must terminate the client connection
	// without tearing down the shared upstream connection.
	r := newRig(t, false, false)
	tc := dialClient(t, r)
	r.s.Schedule(0, func() {
		tc.get("/", [2]string{"Connection", "close"})
	})
	r.s.Run()

	if len(tc.resps) != 1 || tc.resps[0].StatusCode != 200 {
		t.Fatalf("got %d responses, want one 200", len(tc.resps))
	}
	if got := tc.resps[0].Header.Get("Connection"); !strings.Contains(got, "close") {
		t.Fatalf("Connection = %q, want close", got)
	}
	if r.proxy.up == nil || r.proxy.up.dead {
		t.Fatal("upstream connection did not survive the client close")
	}
	if st := r.proxy.up.conn.State(); st != tcpsim.StateEstablished {
		t.Fatalf("upstream state = %v, want established", st)
	}
}
