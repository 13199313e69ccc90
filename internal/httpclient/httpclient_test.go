package httpclient

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/httpmsg"
	"repro/internal/httpserver"
	"repro/internal/mux"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/webgen"
)

var (
	siteOnce sync.Once
	siteVal  *webgen.Site
	siteErr  error
)

func testSite(t *testing.T) *webgen.Site {
	t.Helper()
	siteOnce.Do(func() {
		siteVal, siteErr = webgen.Microscape(webgen.Options{Seed: 7, HTMLBytes: 6000})
	})
	if siteErr != nil {
		t.Fatal(siteErr)
	}
	return siteVal
}

// fetch runs one robot fetch against a fresh simulated network.
func fetch(t *testing.T, cfg Config, wl Workload, prime bool) (*Robot, *sim.Simulator) {
	t.Helper()
	s := sim.New()
	s.SetEventLimit(10_000_000)
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	serverHost := n.AddHost("server")
	link := netem.Config{PropagationDelay: 2 * time.Millisecond, BitsPerSecond: 10_000_000, MTU: 1500}
	n.ConnectHosts(client, serverHost, netem.NewAsymPath(s, "t", link, link))
	site := testSite(t)
	httpserver.New(s, serverHost, 80, site,
		httpserver.Config{Profile: httpserver.ProfileApache, NoDelay: true}, nil)
	cache := NewCache()
	if prime {
		cache.Prime(site)
	}
	robot := NewRobot(s, client, "server", 80, cfg, cache, nil)
	s.Schedule(0, func() { robot.Start("/", wl, nil) })
	s.Run()
	if !robot.Finished() {
		t.Fatalf("robot did not finish: %+v", robot.Result())
	}
	return robot, s
}

func TestModePresets(t *testing.T) {
	cases := []struct {
		mode      Mode
		proto     string
		conns     int
		pipelined bool
	}{
		{ModeHTTP10, "HTTP/1.0", 4, false},
		{ModeHTTP11Serial, "HTTP/1.1", 1, false},
		{ModeHTTP11Pipelined, "HTTP/1.1", 1, true},
		{ModeHTTP11PipelinedDeflate, "HTTP/1.1", 1, true},
		{ModeNetscape, "HTTP/1.0", 4, false},
		{ModeMSIE, "HTTP/1.1", 4, false},
	}
	for _, c := range cases {
		cfg := c.mode.Config()
		if cfg.Proto != c.proto || cfg.MaxConns != c.conns || cfg.Pipelining != c.pipelined {
			t.Errorf("%v preset = %+v", c.mode, cfg)
		}
	}
	if !ModeHTTP11PipelinedDeflate.Config().AcceptDeflate {
		t.Error("deflate mode must accept deflate")
	}
	if ModeHTTP10.Config().KeepAlive {
		t.Error("HTTP/1.0 robot must not keep alive")
	}
	if !ModeNetscape.Config().KeepAlive {
		t.Error("Netscape profile uses Keep-Alive")
	}
}

func TestModeAndWorkloadStrings(t *testing.T) {
	if ModeHTTP11Pipelined.String() != "HTTP/1.1 Pipelined" {
		t.Error("mode name")
	}
	if Mode(99).String() != "unknown" {
		t.Error("unknown mode name")
	}
	if FirstTime.String() != "First Time Retrieval" || Revalidate.String() != "Cache Validation" {
		t.Error("workload names")
	}
}

func TestRequestSizesMatchPaper(t *testing.T) {
	// The tuned robot's requests average ~190 bytes with validators.
	req := buildRequest(new(httpmsg.Request), StyleRobot11, "GET", "/images/bullet_sm.gif", "server", "HTTP/1.1")
	req.Header.Add("If-None-Match", `"3a5f2c77-2d4"`)
	req.Header.Add("If-Modified-Since", "Fri, 20 Jun 1997 08:30:00 GMT")
	if n := len(req.Marshal()); n < 150 || n > 230 {
		t.Errorf("robot conditional request = %dB, want ≈190", n)
	}
	// Browser requests are considerably bigger.
	ns := buildRequest(new(httpmsg.Request), StyleNetscape, "GET", "/images/bullet_sm.gif", "server", "HTTP/1.0")
	if n := len(ns.Marshal()); n < 250 {
		t.Errorf("Netscape request = %dB, want > 250", n)
	}
	ie := buildRequest(new(httpmsg.Request), StyleMSIE, "GET", "/images/bullet_sm.gif", "server", "HTTP/1.1")
	if n := len(ie.Marshal()); n < 280 {
		t.Errorf("MSIE request = %dB, want > 280", n)
	}
	old := buildRequest(new(httpmsg.Request), StyleRobot10, "GET", "/images/bullet_sm.gif", "server", "HTTP/1.0")
	if n := len(old.Marshal()); n < 300 {
		t.Errorf("old libwww request = %dB, want > 300", n)
	}
}

func TestStyleStrings(t *testing.T) {
	for _, s := range []Style{StyleRobot11, StyleRobot10, StyleNetscape, StyleMSIE} {
		if s.String() == "unknown" {
			t.Errorf("style %d unnamed", s)
		}
	}
	if Style(99).String() != "unknown" {
		t.Error("unknown style misnamed")
	}
}

func TestFirstTimeFetchAllObjects(t *testing.T) {
	robot, _ := fetch(t, ModeHTTP11Pipelined.Config(), FirstTime, false)
	res := robot.Result()
	if res.Responses200 != 43 {
		t.Fatalf("200s = %d, want 43", res.Responses200)
	}
	if res.SocketsUsed != 1 {
		t.Fatalf("sockets = %d, want 1", res.SocketsUsed)
	}
	// The cache is now populated with validators and the page's links.
	if robot.cache.Len() != 43 {
		t.Fatalf("cache entries = %d, want 43", robot.cache.Len())
	}
	page, ok := robot.cache.Get("/")
	if !ok || len(page.Links) != 42 {
		t.Fatalf("page cache entry links = %d, want 42", len(page.Links))
	}
}

func TestFetchThenRevalidateUsesOwnCache(t *testing.T) {
	// End-to-end cache lifecycle without priming: fetch fills the cache;
	// a second robot sharing it revalidates everything.
	s := sim.New()
	s.SetEventLimit(10_000_000)
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	serverHost := n.AddHost("server")
	link := netem.Config{PropagationDelay: 2 * time.Millisecond, BitsPerSecond: 10_000_000, MTU: 1500}
	n.ConnectHosts(client, serverHost, netem.NewAsymPath(s, "t", link, link))
	site := testSite(t)
	httpserver.New(s, serverHost, 80, site, httpserver.Config{Profile: httpserver.ProfileApache, NoDelay: true}, nil)

	cache := NewCache()
	first := NewRobot(s, client, "server", 80, ModeHTTP11Pipelined.Config(), cache, nil)
	s.Schedule(0, func() { first.Start("/", FirstTime, nil) })
	s.Run()
	if !first.Finished() {
		t.Fatal("first fetch incomplete")
	}

	second := NewRobot(s, client, "server", 80, ModeHTTP11Pipelined.Config(), cache, nil)
	s.Schedule(0, func() { second.Start("/", Revalidate, nil) })
	s.Run()
	if !second.Finished() {
		t.Fatal("revalidation incomplete")
	}
	res := second.Result()
	if res.Responses304 != 43 || res.Responses200 != 0 {
		t.Fatalf("revalidation: 304=%d 200=%d, want 43/0", res.Responses304, res.Responses200)
	}
	page, _ := cache.Get("/")
	if page.Validations != 1 {
		t.Fatalf("page validations = %d, want 1", page.Validations)
	}
}

func TestHTTP10UsesConnectionPerRequest(t *testing.T) {
	robot, _ := fetch(t, ModeHTTP10.Config(), FirstTime, false)
	res := robot.Result()
	if res.SocketsUsed != 43 {
		t.Fatalf("sockets = %d, want 43", res.SocketsUsed)
	}
	if res.MaxSimultaneousConns != 4 {
		t.Fatalf("max simultaneous = %d, want 4", res.MaxSimultaneousConns)
	}
}

func TestHTTP10RevalidationUsesHEAD(t *testing.T) {
	robot, _ := fetch(t, ModeHTTP10.Config(), Revalidate, true)
	res := robot.Result()
	// One full GET (page) + 42 HEADs, all of which return 200.
	if res.Responses200 != 43 || res.Responses304 != 0 {
		t.Fatalf("responses: 200=%d 304=%d", res.Responses200, res.Responses304)
	}
	// The HEADs transfer headers only: payload must be roughly the page.
	if res.PayloadBytes > int64(len(testSite(t).HTML.Body))+4000 {
		t.Fatalf("payload = %d, HEAD bodies transferred?", res.PayloadBytes)
	}
}

func TestKeepAliveReusesConnections(t *testing.T) {
	robot, _ := fetch(t, ModeMSIE.Config(), FirstTime, false)
	res := robot.Result()
	if res.SocketsUsed != 4 {
		t.Fatalf("sockets = %d, want 4 (persistent parallel)", res.SocketsUsed)
	}
}

func TestDeflateFetch(t *testing.T) {
	robot, _ := fetch(t, ModeHTTP11PipelinedDeflate.Config(), FirstTime, false)
	res := robot.Result()
	if res.DeflateResponses != 1 {
		t.Fatalf("deflate responses = %d, want 1", res.DeflateResponses)
	}
	if res.InflatedBytes != int64(len(testSite(t).HTML.Body)) {
		t.Fatalf("inflated = %d, want %d", res.InflatedBytes, len(testSite(t).HTML.Body))
	}
	if res.Responses200 != 43 {
		t.Fatalf("200s = %d, want 43 (links parsed from inflated page)", res.Responses200)
	}
}

// A page whose deflate coding does not inflate is a failed request, and
// so is a burst payload that does not decode. The coded bytes must not
// reach the link extractor (this body starts with a reserved block type,
// has no burst record line, and goes on to look like markup with two
// images), and nothing is cached for the page.
func TestUndecodableDeflatePageFails(t *testing.T) {
	for _, c := range []struct {
		name        string
		mode        Mode
		header      []string // name, value pairs
		deflateResp int
	}{
		{"deflate", ModeHTTP11PipelinedDeflate, []string{"Content-Type", "text/html", "Content-Encoding", "deflate"}, 1},
		{"burst", ModeBurst, []string{"Content-Type", mux.BurstContentType}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New()
			s.SetEventLimit(1_000_000)
			n := tcpsim.NewNetwork(s)
			client := n.AddHost("client")
			serverHost := n.AddHost("server")
			link := netem.Config{PropagationDelay: 2 * time.Millisecond, BitsPerSecond: 10_000_000, MTU: 1500}
			n.ConnectHosts(client, serverHost, netem.NewAsymPath(s, "t", link, link))
			resp := httpmsg.NewResponse(httpmsg.Proto11, 200)
			for i := 0; i < len(c.header); i += 2 {
				resp.Header.Add(c.header[i], c.header[i+1])
			}
			resp.Body = []byte("\xff" + `<img src="/images/a.gif"><img src="/images/b.gif">`)
			var paths []string
			serverHost.Listen(80, tcpsim.Options{NoDelay: true}, func(*tcpsim.Conn) tcpsim.Handler {
				var p httpmsg.RequestParser
				return &tcpsim.Callbacks{Data: func(c *tcpsim.Conn, data []byte) {
					reqs, err := p.Feed(data)
					if err != nil {
						t.Errorf("request parse: %v", err)
					}
					for _, req := range reqs {
						paths = append(paths, req.Target)
						if err := c.Write(resp.Marshal()); err != nil {
							t.Errorf("write: %v", err)
						}
					}
				}}
			})
			robot := NewRobot(s, client, "server", 80, c.mode.Config(), nil, nil)
			s.Schedule(0, func() { robot.Start("/", FirstTime, nil) })
			s.Run()

			res := robot.Result()
			if !robot.Finished() || res.RequestsFailed != 1 || res.DeflateResponses != c.deflateResp || res.InflatedBytes != 0 {
				t.Fatalf("finished %v, result %+v; want one failed response", robot.Finished(), res)
			}
			if len(paths) != 1 {
				t.Fatalf("server saw requests for %v, want only the page", paths)
			}
			if robot.cache.Len() != 0 {
				t.Fatalf("%d cache entries, want none", robot.cache.Len())
			}
		})
	}
}

func TestPageOnlySkipsImages(t *testing.T) {
	cfg := ModeHTTP11Serial.Config()
	cfg.PageOnly = true
	robot, _ := fetch(t, cfg, FirstTime, false)
	res := robot.Result()
	if res.Responses200 != 1 || res.Requests != 1 {
		t.Fatalf("page-only fetched %d objects", res.Responses200)
	}
}

func TestSerialIssuesOneAtATime(t *testing.T) {
	robot, _ := fetch(t, ModeHTTP11Serial.Config(), Revalidate, true)
	res := robot.Result()
	if res.SocketsUsed != 1 || res.Responses304 != 43 {
		t.Fatalf("serial revalidation: %+v", res)
	}
}

func TestCachePrime(t *testing.T) {
	c := NewCache()
	c.Prime(testSite(t))
	if c.Len() != 43 {
		t.Fatalf("primed entries = %d, want 43", c.Len())
	}
	page, ok := c.Get("/")
	if !ok {
		t.Fatal("page not primed")
	}
	if len(page.Links) != 42 {
		t.Fatalf("page links = %d, want 42", len(page.Links))
	}
	for _, link := range page.Links {
		if _, ok := c.Get(link); !ok {
			t.Fatalf("linked object %s not primed", link)
		}
	}
	img, _ := c.Get(page.Links[0])
	if img.ETag == "" || img.LastModified == "" || img.Size == 0 {
		t.Fatalf("image entry incomplete: %+v", img)
	}
}

func TestConditionalRequestCarriesValidators(t *testing.T) {
	c := NewCache()
	c.Prime(testSite(t))
	r := &Robot{cfg: ModeHTTP11Pipelined.Config(), cache: c}
	req := r.buildItemRequest(workItem{method: "GET", path: "/", conditional: true, isHTML: true})
	if !req.Header.Has("If-None-Match") || !req.Header.Has("If-Modified-Since") {
		t.Fatalf("validators missing: %s", req.Marshal())
	}
	// HTTP/1.0-era styles send dates only.
	r10 := &Robot{cfg: ModeNetscape.Config(), cache: c}
	req10 := r10.buildItemRequest(workItem{method: "GET", path: "/", conditional: true})
	if req10.Header.Has("If-None-Match") {
		t.Fatal("Netscape profile sent an entity tag")
	}
	if !req10.Header.Has("If-Modified-Since") {
		t.Fatal("Netscape profile missing IMS")
	}
}

func TestAcceptEncodingOnlyOnPage(t *testing.T) {
	cfg := ModeHTTP11PipelinedDeflate.Config()
	r := &Robot{cfg: cfg, cache: NewCache()}
	page := r.buildItemRequest(workItem{method: "GET", path: "/", isHTML: true})
	if page.Header.Get("Accept-Encoding") != "deflate" {
		t.Fatal("page request missing Accept-Encoding")
	}
	img := r.buildItemRequest(workItem{method: "GET", path: "/images/x.gif"})
	if img.Header.Has("Accept-Encoding") {
		t.Fatal("image request advertises deflate (images are pre-compressed)")
	}
}

func TestPipelinedBatchesIntoFewSegments(t *testing.T) {
	// Revalidation requests (~180B each) must travel many per segment.
	s := sim.New()
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	serverHost := n.AddHost("server")
	link := netem.Config{PropagationDelay: 10 * time.Millisecond, BitsPerSecond: 10_000_000, MTU: 1500}
	n.ConnectHosts(client, serverHost, netem.NewAsymPath(s, "t", link, link))
	site := testSite(t)
	httpserver.New(s, serverHost, 80, site, httpserver.Config{Profile: httpserver.ProfileApache, NoDelay: true}, nil)
	clientDataSegs := 0
	n.PacketHook = func(ev tcpsim.PacketEvent) {
		if ev.Seg.From.Host == "client" && len(ev.Seg.Payload) > 0 {
			clientDataSegs++
		}
	}
	cache := NewCache()
	cache.Prime(site)
	robot := NewRobot(s, client, "server", 80, ModeHTTP11Pipelined.Config(), cache, nil)
	s.Schedule(0, func() { robot.Start("/", Revalidate, nil) })
	s.Run()
	if !robot.Finished() {
		t.Fatal("not finished")
	}
	if clientDataSegs > 12 {
		t.Fatalf("client sent %d data segments for 43 requests; batching broken", clientDataSegs)
	}
}

func TestUnconditionalHTMLRevalidation(t *testing.T) {
	cfg := ModeMSIE.Config()
	cfg.RevalidateHTMLUnconditionally = true
	robot, _ := fetch(t, cfg, Revalidate, true)
	res := robot.Result()
	// The page comes back in full; images still validate.
	if res.Responses200 != 1 || res.Responses304 != 42 {
		t.Fatalf("responses: 200=%d 304=%d, want 1/42", res.Responses200, res.Responses304)
	}
}

func TestRobotRequestProtocolVersions(t *testing.T) {
	req := buildRequest(new(httpmsg.Request), StyleRobot10, "GET", "/", "server", "HTTP/1.0")
	if !strings.HasPrefix(string(req.Marshal()), "GET / HTTP/1.0\r\n") {
		t.Fatal("HTTP/1.0 request line wrong")
	}
	req = buildRequest(new(httpmsg.Request), StyleRobot11, "GET", "/", "server", "HTTP/1.1")
	if !req.Header.Has("Host") {
		t.Fatal("HTTP/1.1 request missing Host")
	}
}

func TestResultSnapshot(t *testing.T) {
	robot, _ := fetch(t, ModeHTTP11Pipelined.Config(), FirstTime, false)
	res := robot.Result()
	if !res.Done || res.Requests != 43 || res.Errors != 0 {
		t.Fatalf("result: %+v", res)
	}
	site := testSite(t)
	if res.PayloadBytes < int64(site.TotalBytes()) {
		t.Fatalf("payload %d below site total %d", res.PayloadBytes, site.TotalBytes())
	}
}

// fetchFaulty runs one robot fetch against a server with the given
// (possibly fault-injecting) configuration. The link is WAN-like: the
// 45ms propagation delay keeps pipelined request batches in flight when
// the server closes early, which is what turns a naive close into RST.
func fetchFaulty(t *testing.T, cfg Config, srvCfg httpserver.Config) *Robot {
	t.Helper()
	s := sim.New()
	s.SetEventLimit(10_000_000)
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	serverHost := n.AddHost("server")
	link := netem.Config{PropagationDelay: 45 * time.Millisecond, BitsPerSecond: 1_500_000, MTU: 1500}
	n.ConnectHosts(client, serverHost, netem.NewAsymPath(s, "t", link, link))
	httpserver.New(s, serverHost, 80, testSite(t), srvCfg, nil)
	robot := NewRobot(s, client, "server", 80, cfg, NewCache(), nil)
	s.Schedule(0, func() { robot.Start("/", FirstTime, nil) })
	s.Run()
	return robot
}

// TestFailConnRequeue reproduces the paper's §4 connection-management
// scenario: a server that closes naively after 5 responses while the
// pipelined client still has requests outstanding. The unread pipelined
// requests draw RST; the client must requeue the unanswered work on a
// fresh connection and still retrieve the complete site.
func TestFailConnRequeue(t *testing.T) {
	srvCfg := httpserver.Config{
		Profile: httpserver.ProfileApache, NoDelay: true,
		MaxRequestsPerConn: 5, NaiveClose: true,
	}
	t.Run("legacy", func(t *testing.T) {
		robot := fetchFaulty(t, ModeHTTP11Pipelined.Config(), srvCfg)
		res := robot.Result()
		if !robot.Finished() || !res.Done {
			t.Fatalf("robot did not finish: %+v", res)
		}
		if res.Responses200 != 43 {
			t.Fatalf("200s = %d, want 43", res.Responses200)
		}
		if res.PayloadBytes < int64(testSite(t).TotalBytes()) {
			t.Fatalf("payload %d below site total %d", res.PayloadBytes, testSite(t).TotalBytes())
		}
		if res.Retried == 0 || res.Errors == 0 {
			t.Fatalf("no retries/errors recorded: %+v", res)
		}
		if res.SocketsUsed < 2 {
			t.Fatalf("sockets = %d, want reconnects", res.SocketsUsed)
		}
		// Without a policy the robot stops pipelining but counts nothing.
		if res.Fallbacks != 0 {
			t.Fatalf("fallbacks = %d without a policy, want 0", res.Fallbacks)
		}
	})
	t.Run("policy", func(t *testing.T) {
		cfg := ModeHTTP11Pipelined.Config()
		cfg.Recovery = true
		robot := fetchFaulty(t, cfg, srvCfg)
		res := robot.Result()
		if !robot.Finished() || !res.Done {
			t.Fatalf("robot did not finish: %+v", res)
		}
		if res.Responses200 != 43 || res.RequestsFailed != 0 {
			t.Fatalf("200s = %d failed = %d, want 43/0", res.Responses200, res.RequestsFailed)
		}
		if res.PayloadBytes < int64(testSite(t).TotalBytes()) {
			t.Fatalf("payload %d below site total %d", res.PayloadBytes, testSite(t).TotalBytes())
		}
		if res.Retried == 0 || res.Retried > faults.RetryBudget {
			t.Fatalf("retried = %d, want within (0, %d]", res.Retried, faults.RetryBudget)
		}
		if res.RequestsRecovered == 0 {
			t.Fatalf("no recovered requests: %+v", res)
		}
		if res.Fallbacks == 0 {
			t.Fatalf("pipelined → serial fallback not recorded: %+v", res)
		}
	})
}

// TestDegradationLadder runs a mux robot against a server that resets
// every connection: it must step down one rung at a time — mux →
// pipelined → serial → HTTP/1.0 — and, once the retry budget is spent,
// give up on the page and finish.
func TestDegradationLadder(t *testing.T) {
	s := sim.New()
	s.SetEventLimit(1_000_000)
	n := tcpsim.NewNetwork(s)
	client := n.AddHost("client")
	serverHost := n.AddHost("server")
	link := netem.Config{PropagationDelay: 2 * time.Millisecond, BitsPerSecond: 10_000_000, MTU: 1500}
	n.ConnectHosts(client, serverHost, netem.NewAsymPath(s, "t", link, link))
	serverHost.Listen(80, tcpsim.Options{NoDelay: true}, func(*tcpsim.Conn) tcpsim.Handler {
		return &tcpsim.Callbacks{Data: func(c *tcpsim.Conn, _ []byte) { c.Abort() }}
	})
	bus := obs.New(s)
	cfg := ModeMux.Config()
	cfg.Recovery, cfg.Obs = true, bus
	robot := NewRobot(s, client, "server", 80, cfg, nil, nil)
	s.Schedule(0, func() { robot.Start("/", FirstTime, nil) })
	s.Run()

	var rungs []string
	for _, ev := range bus.Events() {
		if ev.Kind == obs.KindFallback {
			rungs = append(rungs, fmt.Sprintf("(%d, %s)", ev.A, ev.Note))
		}
	}
	if got, want := strings.Join(rungs, " "), "(1, pipelined) (1, serial) (2, http10)"; got != want {
		t.Fatalf("fallbacks %s, want %s", got, want)
	}
	res := robot.Result()
	if !robot.Finished() || res.Fallbacks != 3 {
		t.Fatalf("finished %v, result %+v; want 3 fallbacks", robot.Finished(), res)
	}
}

// TestStallTimeout wedges the server after the headers of one response
// (a stall-forever fault). Without a Recovery policy the fetch would
// simply hang; with one, the progress watchdog must abort the silent
// connection and recover the remaining requests on a fresh one.
func TestStallTimeout(t *testing.T) {
	srvCfg := httpserver.Config{
		Profile: httpserver.ProfileApache, NoDelay: true,
		Fault: faults.ServerFault{Kind: faults.Stall, At: 3},
	}
	cfg := ModeHTTP11Pipelined.Config()
	cfg.Recovery = true
	robot := fetchFaulty(t, cfg, srvCfg)
	res := robot.Result()
	if !robot.Finished() || !res.Done {
		t.Fatalf("robot hung on stalled connection: %+v", res)
	}
	if res.Timeouts == 0 {
		t.Fatalf("watchdog never fired: %+v", res)
	}
	if res.Responses200 != 43 || res.RequestsFailed != 0 {
		t.Fatalf("200s = %d failed = %d, want 43/0", res.Responses200, res.RequestsFailed)
	}
}

// The cache the fetch leaves behind records each object's size whether
// the robot kept the body or only counted it — the inflated size for the
// deflate-coded page — and a counted fetch holds no body it did not
// read: every mode's entries must equal the site's objects both ways.
func TestCacheEntrySizesKeptAndCounted(t *testing.T) {
	defer func() { retainBodies = false }()
	site := testSite(t)
	for _, mode := range []Mode{ModeHTTP10, ModeHTTP11Serial, ModeHTTP11Pipelined,
		ModeHTTP11PipelinedDeflate, ModeMux, ModeMuxPush, ModeBurst} {
		for _, keep := range []bool{true, false} {
			retainBodies = keep
			robot, _ := fetch(t, mode.Config(), FirstTime, false)
			if n := robot.cache.Len(); n != site.ObjectCount() {
				t.Fatalf("%v keep=%v: %d cache entries, want %d", mode, keep, n, site.ObjectCount())
			}
			for _, path := range site.Paths() {
				obj, _ := site.Object(path)
				if e, ok := robot.cache.Get(path); !ok || e.Size != len(obj.Body) || e.ETag != obj.ETag {
					t.Errorf("%v keep=%v: entry for %s = %+v, want size %d, etag %s", mode, keep, path, e, len(obj.Body), obj.ETag)
				}
			}
		}
	}
}

// Prime takes the page's link list from the site, which extracts it once:
// every primed cache shares one list, and it is the list a first-time
// fetch discovers.
func TestPrimeSharesTheSitesLinkList(t *testing.T) {
	site := testSite(t)
	a, b := NewCache(), NewCache()
	a.Prime(site)
	b.Prime(site)
	pa, _ := a.Get("/")
	pb, _ := b.Get("/")
	if len(pa.Links) == 0 || &pa.Links[0] != &pb.Links[0] {
		t.Fatal("two caches primed from one site do not share its link list")
	}
	robot, _ := fetch(t, ModeHTTP11Pipelined.Config(), FirstTime, false)
	fetched, _ := robot.cache.Get("/")
	// Prime lists every inline reference in document order; the robot
	// records each URL once, which for this page is the same list.
	if strings.Join(fetched.Links, " ") != strings.Join(pa.Links, " ") {
		t.Fatalf("primed links differ from fetched links:\n%v\n%v", pa.Links, fetched.Links)
	}
}

// Every header name a framed request can carry, in every style and with
// every optional field a work item adds, lowers without allocating:
// muxFields lowers each one per request.
func TestRequestNamesLowerWithoutAllocating(t *testing.T) {
	cfg := ModeBurst.Config()
	cfg.AcceptDeflate = true
	r := &Robot{cfg: cfg, cache: NewCache()}
	r.cache.Put(&Entry{Path: "/", ETag: `"e"`, LastModified: "Mon, 07 Jul 1997 10:00:00 GMT"})
	it := workItem{method: "GET", path: "/", conditional: true, isHTML: true, rangeHi: 511}
	for s := StyleRobot11; s <= StyleMSIE; s++ {
		r.cfg.Style = s
		for _, f := range r.buildItemRequest(it).Header.Fields() {
			if n := testing.AllocsPerRun(10, func() { _ = mux.LowerName(f.Name) }); n != 0 {
				t.Errorf("%v: lowering %q allocates %.0f times", s, f.Name, n)
			}
		}
	}
}
