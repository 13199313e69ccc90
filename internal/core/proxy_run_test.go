package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
)

// proxyScenario is the experiment's canonical cell: a dialup client
// behind a shared proxy that reaches the Apache origin over the WAN.
func proxyScenario(mode httpclient.Mode, warm, stale bool) Scenario {
	sc := scenario(httpserver.ProfileApache, mode, netem.PPP, httpclient.FirstTime)
	sc.Proxy = &ProxyScenario{Env: netem.WAN, Warm: warm, Stale: stale}
	return sc
}

// TestProxyWarmFewerOriginPackets is the headline cache win: the same
// pipelined retrieval through a warm proxy must put strictly fewer
// packets on the origin link than through a cold one — the warm cache
// answers everything at the ISP.
func TestProxyWarmFewerOriginPackets(t *testing.T) {
	site := testSite(t)
	cold, err := Run(proxyScenario(httpclient.ModeHTTP11Pipelined, false, false), site)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(proxyScenario(httpclient.ModeHTTP11Pipelined, true, false), site)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Proxy == nil || cold.Origin == nil || warm.Proxy == nil || warm.Origin == nil {
		t.Fatal("proxy run missing proxy/origin stats")
	}
	if cold.Origin.Packets == 0 {
		t.Fatal("cold run put no packets on the origin link")
	}
	if warm.Origin.Packets >= cold.Origin.Packets {
		t.Fatalf("warm origin packets = %d, want strictly fewer than cold %d",
			warm.Origin.Packets, cold.Origin.Packets)
	}
	if cold.Proxy.Hits != 0 || cold.Proxy.Misses == 0 {
		t.Fatalf("cold cache counters: %d hits, %d misses", cold.Proxy.Hits, cold.Proxy.Misses)
	}
	if warm.Proxy.Misses != 0 || warm.Proxy.Hits != warm.Proxy.Requests {
		t.Fatalf("warm cache counters: %d hits of %d requests, %d misses",
			warm.Proxy.Hits, warm.Proxy.Requests, warm.Proxy.Misses)
	}
	if warm.Proxy.UpstreamRequests != 0 || warm.Proxy.BytesFromCache == 0 {
		t.Fatalf("warm run: %d upstream requests, %d bytes from cache",
			warm.Proxy.UpstreamRequests, warm.Proxy.BytesFromCache)
	}
	// Either way the client must see the complete site.
	for _, res := range []*RunResult{cold, warm} {
		if !res.Client.Done || res.Client.Responses200 != 43 || res.Client.Errors != 0 {
			t.Fatalf("client result through proxy: %+v", res.Client)
		}
	}
}

// TestProxyStaleRevalidatesWithoutBodies checks the third cache state: a
// cache primed on an earlier day answers every request from storage but
// must first revalidate upstream, so origin traffic is conditional GETs
// and 304s — more than warm, far less than cold.
func TestProxyStaleRevalidatesWithoutBodies(t *testing.T) {
	site := testSite(t)
	cold, err := Run(proxyScenario(httpclient.ModeHTTP11Pipelined, false, false), site)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := Run(proxyScenario(httpclient.ModeHTTP11Pipelined, false, true), site)
	if err != nil {
		t.Fatal(err)
	}
	p := stale.Proxy
	if p.Revalidations != p.Requests || p.RevalidationHits != p.Revalidations {
		t.Fatalf("stale run: %d revalidations (%d confirmed) of %d requests",
			p.Revalidations, p.RevalidationHits, p.Requests)
	}
	if p.BytesFromUpstream != 0 {
		t.Fatalf("stale run pulled %d body bytes upstream, want 0 (all 304s)", p.BytesFromUpstream)
	}
	if stale.Origin.Packets == 0 || stale.Origin.Packets >= cold.Origin.Packets {
		t.Fatalf("stale origin packets = %d, want between 1 and cold's %d",
			stale.Origin.Packets, cold.Origin.Packets)
	}
	if stale.Origin.PayloadBytes >= cold.Origin.PayloadBytes {
		t.Fatalf("stale origin payload = %d, want below cold's %d",
			stale.Origin.PayloadBytes, cold.Origin.PayloadBytes)
	}
}

// TestProxyMetricsFilled checks the structured record carries the
// cache-aware fields on a proxy run and omits them on a direct one.
func TestProxyMetricsFilled(t *testing.T) {
	site := testSite(t)
	var m exp.Metrics
	res, err := Run(proxyScenario(httpclient.ModeHTTP11Serial, false, false), site, WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheMisses != res.Proxy.Misses || m.UpstreamRequests != res.Proxy.UpstreamRequests {
		t.Fatalf("metrics misses/upstream = %d/%d, proxy stats %d/%d",
			m.CacheMisses, m.UpstreamRequests, res.Proxy.Misses, res.Proxy.UpstreamRequests)
	}
	if m.OriginPackets != res.Origin.Packets || m.OriginBytes != res.Origin.PayloadBytes {
		t.Fatalf("metrics origin %d pkts/%d bytes, trace %d/%d",
			m.OriginPackets, m.OriginBytes, res.Origin.Packets, res.Origin.PayloadBytes)
	}
	if !strings.HasSuffix(m.Scenario, "/proxy:WAN") {
		t.Fatalf("metrics scenario %q missing topology suffix", m.Scenario)
	}
	var direct exp.Metrics
	if _, err := Run(scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Serial, netem.PPP, httpclient.FirstTime), site, WithMetrics(&direct)); err != nil {
		t.Fatal(err)
	}
	if direct.CacheHits != 0 || direct.UpstreamRequests != 0 || direct.OriginPackets != 0 {
		t.Fatalf("direct run leaked proxy metrics: %+v", direct)
	}
}

// TestProxyDeterminism requires identical seeds to reproduce a proxied
// run exactly, including the origin-side trace and proxy counters.
func TestProxyDeterminism(t *testing.T) {
	site := testSite(t)
	sc := proxyScenario(httpclient.ModeHTTP11Pipelined, false, true)
	a, err := Run(sc, site)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, site)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) || !reflect.DeepEqual(a.Origin, b.Origin) ||
		!reflect.DeepEqual(a.Proxy, b.Proxy) || a.Elapsed != b.Elapsed {
		t.Fatalf("same seed diverged:\n%+v / %+v\nvs\n%+v / %+v", a.Stats, a.Proxy, b.Stats, b.Proxy)
	}
}

// TestProxyTimelineDoesNotPerturb extends the golden-output guarantee
// to multi-hop runs: observing a proxied run must not change what any
// tier measures.
func TestProxyTimelineDoesNotPerturb(t *testing.T) {
	site := testSite(t)
	sc := proxyScenario(httpclient.ModeHTTP11Pipelined, false, false)
	plain, err := Run(sc, site)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(sc, site, WithTimeline())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, observed.Stats) || !reflect.DeepEqual(plain.Origin, observed.Origin) {
		t.Fatalf("link stats differ with timeline on:\n%+v / %+v\nvs\n%+v / %+v",
			plain.Stats, plain.Origin, observed.Stats, observed.Origin)
	}
	if !reflect.DeepEqual(plain.Proxy, observed.Proxy) {
		t.Fatalf("proxy stats differ with timeline on:\n%+v\nvs\n%+v", plain.Proxy, observed.Proxy)
	}
	if !reflect.DeepEqual(plain.Client, observed.Client) {
		t.Fatal("client results differ with timeline on")
	}
	via := 0
	for _, sp := range observed.Timeline.Spans() {
		if sp.Via != "" {
			via++
		}
	}
	if via == 0 {
		t.Fatal("no spans tagged with the proxy's Via on an observed proxy run")
	}
}

// TestParseTopology covers the new scenario vocabulary and its error
// messages naming the valid values.
func TestParseTopology(t *testing.T) {
	if p, err := ParseTopology("direct"); err != nil || p != nil {
		t.Fatalf("direct = %v, %v", p, err)
	}
	p, err := ParseTopology("proxy:WAN:warm")
	if err != nil || p == nil || p.Env != netem.WAN || !p.Warm || p.Stale {
		t.Fatalf("proxy:WAN:warm = %+v, %v", p, err)
	}
	sc, err := ParseScenario("apache/pipelined/PPP/first/proxy:LAN:stale")
	if err != nil || sc.Proxy == nil || sc.Proxy.Env != netem.LAN || !sc.Proxy.Stale {
		t.Fatalf("five-part scenario = %+v, %v", sc.Proxy, err)
	}
	if got := sc.String(); got != "Apache/HTTP/1.1 Pipelined/PPP/First Time Retrieval/proxy:LAN:stale" {
		t.Fatalf("scenario string = %q", got)
	}
	for spec, want := range map[string]string{
		"bridge:WAN":     "direct or proxy:ENV",
		"proxy:DSL":      "LAN, WAN, or PPP",
		"proxy:WAN:damp": "warm or stale",
	} {
		if _, err := ParseTopology(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ParseTopology(%q) error %v, want mention of %q", spec, err, want)
		}
	}
	if _, err := ParseScenario("apache/pipelined/PPP"); err == nil ||
		!strings.Contains(err.Error(), "topology") {
		t.Fatalf("short scenario error %v should name the optional topology part", err)
	}
}
