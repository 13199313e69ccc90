package core

import (
	"errors"
	"testing"

	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
)

func muxScenario(mode httpclient.Mode, wl httpclient.Workload) Scenario {
	return Scenario{
		Server:   httpserver.ProfileApache,
		Client:   mode,
		Env:      netem.WAN,
		Workload: wl,
	}
}

// TestMuxFirstTime: the mux client fetches the whole site over one
// connection, one stream per object, with measurable header savings.
func TestMuxFirstTime(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	var m exp.Metrics
	res, err := Run(muxScenario(httpclient.ModeMux, httpclient.FirstTime), site, WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Client
	if !c.Done || c.Aborted {
		t.Fatalf("fetch not clean: %+v", c)
	}
	objects := len(site.Paths())
	if c.Responses200 != objects {
		t.Errorf("Responses200 = %d, want %d", c.Responses200, objects)
	}
	if c.SocketsUsed != 1 {
		t.Errorf("SocketsUsed = %d, want 1 (single multiplexed connection)", c.SocketsUsed)
	}
	if c.StreamsOpened != objects {
		t.Errorf("StreamsOpened = %d, want %d", c.StreamsOpened, objects)
	}
	if c.PushPromised != 0 || c.PushUsed != 0 {
		t.Errorf("push counters nonzero without push: %+v", c)
	}
	if c.HeaderBytesSaved <= 0 {
		t.Errorf("HeaderBytesSaved = %d, want > 0", c.HeaderBytesSaved)
	}
	if m.StreamsOpened != c.StreamsOpened || m.HeaderBytesSaved != c.HeaderBytesSaved {
		t.Errorf("metrics disagree with result: %+v vs %+v", m, c)
	}
}

// TestMuxPushFirstTime: the server promises every inline object; the
// empty-cache client claims every promise instead of requesting.
func TestMuxPushFirstTime(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(muxScenario(httpclient.ModeMuxPush, httpclient.FirstTime), site)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Client
	objects := len(site.Paths())
	inline := objects - 1
	if c.Responses200 != objects {
		t.Errorf("Responses200 = %d, want %d", c.Responses200, objects)
	}
	if c.PushPromised != inline {
		t.Errorf("PushPromised = %d, want %d", c.PushPromised, inline)
	}
	if c.PushUsed != inline {
		t.Errorf("PushUsed = %d, want %d (empty cache claims every promise)", c.PushUsed, inline)
	}
	if c.StreamsOpened != 1 {
		t.Errorf("StreamsOpened = %d, want 1 (only the page; the rest is pushed)", c.StreamsOpened)
	}
	if c.PushWastedBytes != 0 {
		t.Errorf("PushWastedBytes = %d, want 0 when every push is claimed", c.PushWastedBytes)
	}
}

// TestMuxPushRevalidate: a warm-cache client cancels every promise and
// revalidates instead; pushed bytes racing the cancellations are waste.
func TestMuxPushRevalidate(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(muxScenario(httpclient.ModeMuxPush, httpclient.Revalidate), site)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Client
	objects := len(site.Paths())
	if c.Responses304 != objects {
		t.Errorf("Responses304 = %d, want %d", c.Responses304, objects)
	}
	if c.PushUsed != 0 {
		t.Errorf("PushUsed = %d, want 0 (cache satisfies everything)", c.PushUsed)
	}
	if c.PushPromised == 0 {
		t.Errorf("PushPromised = 0, want > 0 (server pushed on the 304)")
	}
}

// TestBurstWorkloads: one request, one aggregated response first-time;
// one 304 on revalidation.
func TestBurstWorkloads(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(muxScenario(httpclient.ModeBurst, httpclient.FirstTime), site)
	if err != nil {
		t.Fatal(err)
	}
	if c := first.Client; c.Requests != 1 || c.Responses200 != 1 {
		t.Errorf("first-time burst: %d requests / %d 200s, want 1/1", c.Requests, c.Responses200)
	}
	var total int64
	for _, p := range site.Paths() {
		obj, _ := site.Object(p)
		total += int64(len(obj.Body))
	}
	if c := first.Client; c.PayloadBytes <= total {
		t.Errorf("burst payload %d, want > %d (bodies plus record headers)", c.PayloadBytes, total)
	}
	reval, err := Run(muxScenario(httpclient.ModeBurst, httpclient.Revalidate), site)
	if err != nil {
		t.Fatal(err)
	}
	if c := reval.Client; c.Requests != 1 || c.Responses304 != 1 {
		t.Errorf("reval burst: %d requests / %d 304s, want 1/1", c.Requests, c.Responses304)
	}
}

// TestMuxDeterministicRepeat: the same mux scenario twice produces
// identical results.
func TestMuxDeterministicRepeat(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []httpclient.Mode{httpclient.ModeMux, httpclient.ModeMuxPush, httpclient.ModeBurst} {
		sc := muxScenario(mode, httpclient.FirstTime)
		sc.Jitter = true
		sc.Seed = 7
		a, err := Run(sc, site)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(sc, site)
		if err != nil {
			t.Fatal(err)
		}
		if a.Client != b.Client || a.Stats != b.Stats {
			t.Errorf("%v: repeated run diverged:\n%+v\nvs\n%+v", mode, a.Client, b.Client)
		}
	}
}

// TestMuxFaultModeValidation: every fault profile now runs (and
// finishes) on every client mode — the framed modes map HTTP/1.x
// server misbehaviour onto their own framing and recover — so the only
// up-front rejection left is a topology the simulator cannot build.
func TestMuxFaultModeValidation(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	combos := []struct {
		mode  httpclient.Mode
		fault faults.Profile
	}{
		{httpclient.ModeBurst, faults.Stall},
		{httpclient.ModeMux, faults.EarlyClose},
		{httpclient.ModeMuxPush, faults.Truncate},
		{httpclient.ModeMux, faults.Abort},
		{httpclient.ModeMux, faults.MuxRst},
		{httpclient.ModeMuxPush, faults.MuxPushAbort},
		{httpclient.ModeMux, faults.MuxStall},
	}
	for _, tc := range combos {
		sc := muxScenario(tc.mode, httpclient.FirstTime)
		sc.Fault = tc.fault
		res, err := Run(sc, site)
		if err != nil {
			t.Errorf("%v + %v: err = %v, want success", tc.mode, tc.fault, err)
			continue
		}
		if !res.Client.Done {
			t.Errorf("%v + %v: page did not finish: %+v", tc.mode, tc.fault, res.Client)
		}
	}
	// Link-level faults remain valid for the new modes.
	sc := muxScenario(httpclient.ModeMux, httpclient.FirstTime)
	sc.Fault = faults.BurstLoss
	if _, err := Run(sc, site); err != nil {
		t.Errorf("mux + burst-loss: %v, want success", err)
	}
	// The HTTP/1.x proxy cannot forward framed connections.
	sc = muxScenario(httpclient.ModeMuxPush, httpclient.FirstTime)
	sc.Fault = faults.None
	sc.Proxy = &ProxyScenario{Env: netem.WAN}
	if _, err := Run(sc, site); !errors.Is(err, ErrMuxTopology) {
		t.Errorf("proxy + mux: err = %v, want ErrMuxTopology", err)
	}
	// Burst is plain HTTP/1.1 and does proxy.
	sc = muxScenario(httpclient.ModeBurst, httpclient.FirstTime)
	sc.Proxy = &ProxyScenario{Env: netem.WAN}
	if _, err := Run(sc, site); err != nil {
		t.Errorf("proxy + burst: %v, want success", err)
	}
}

// TestMuxPerStreamWatchdog: a server that stalls one framed response
// mid-stream (headers, then silence) must not hang the page. On a link
// slow enough that the other streams are still flowing when the silent
// stream's deadline passes, the per-stream watchdog tears it down with
// RST_STREAM — no session abort — the request is retried, and every
// object still arrives.
func TestMuxPerStreamWatchdog(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	sc := muxScenario(httpclient.ModeMux, httpclient.FirstTime)
	sc.Env = netem.PPP
	sc.Fault = faults.Stall
	res, err := Run(sc, site)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Client
	if !c.Done {
		t.Fatalf("page did not finish: %+v", c)
	}
	if c.StreamsReset == 0 {
		t.Errorf("StreamsReset = 0, want > 0 (watchdog must reset the silent stream)")
	}
	if c.RequestsFailed != 0 {
		t.Errorf("RequestsFailed = %d, want 0 (the reset request is retried)", c.RequestsFailed)
	}
	if objects := len(site.Paths()); c.Responses200 != objects {
		t.Errorf("Responses200 = %d, want %d", c.Responses200, objects)
	}
	if c.Retried == 0 {
		t.Errorf("Retried = 0, want > 0")
	}
}

// TestMuxFirstTimePacketsNearPipelining: with a dispatch's requests in
// one write, windows credited in half-window steps and the server's
// output buffered while it computes a response, a framed first-time
// fetch costs at most 1.5× pipelining's packets on every environment,
// with push or without.
func TestMuxFirstTimePacketsNearPipelining(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range netem.Environments {
		packets := func(mode httpclient.Mode) int {
			sc := Scenario{Server: httpserver.ProfileApache, Client: mode, Env: env, Workload: httpclient.FirstTime}
			res, err := Run(sc, site)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats.Packets
		}
		pipelined := packets(httpclient.ModeHTTP11Pipelined)
		for _, mode := range []httpclient.Mode{httpclient.ModeMux, httpclient.ModeMuxPush} {
			if got := packets(mode); 2*got > 3*pipelined {
				t.Errorf("%v %v: %d packets, pipelining %d: more than 1.5×", env, mode, got, pipelined)
			}
		}
	}
}
