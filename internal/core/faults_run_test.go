package core

import (
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/tcpsim"
)

// TestEarlyClosePipelinedRecovers reproduces the paper's §4 hazard — a
// server that closes after 5 responses while pipelined requests are
// outstanding — and checks the recovery policy end to end: every one of
// the 43 requests completes with the full payload, at least one request
// is re-issued on a fresh connection, the naive close shows up as an
// RST on the wire, and the retry budget is never exceeded.
func TestEarlyClosePipelinedRecovers(t *testing.T) {
	site := testSite(t)
	sc := Scenario{
		Server:   httpserver.ProfileApache,
		Client:   httpclient.ModeHTTP11Pipelined,
		Env:      netem.WAN,
		Workload: httpclient.FirstTime,
		Seed:     7,
		Fault:    faults.EarlyClose,
	}
	res, err := Run(sc, site, WithCapture())
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	c := res.Client
	if !c.Done {
		t.Fatal("run did not finish")
	}
	if c.Responses200 != 43 {
		t.Fatalf("got %d 200s, want 43", c.Responses200)
	}
	if c.RequestsFailed != 0 {
		t.Fatalf("%d requests permanently failed", c.RequestsFailed)
	}
	if c.PayloadBytes < int64(site.TotalBytes()) {
		t.Fatalf("payload %d < site total %d", c.PayloadBytes, site.TotalBytes())
	}
	if c.Retried < 1 {
		t.Fatal("early close never forced a retry")
	}
	if c.Retried > faults.RetryBudget {
		t.Fatalf("retried %d requests, budget is %d", c.Retried, faults.RetryBudget)
	}
	if c.RequestsRecovered < 1 {
		t.Fatal("no retried request was recovered")
	}
	rsts := 0
	for _, ev := range res.Capture.Events() {
		if ev.Seg.Flags&tcpsim.FlagRST != 0 {
			rsts++
		}
	}
	if rsts == 0 {
		t.Fatal("no RST in the capture: naive close did not hit in-flight requests")
	}
	if res.Stats.Packets != len(res.Capture.Events()) {
		t.Fatalf("capture has %d packets, stats say %d", len(res.Capture.Events()), res.Stats.Packets)
	}
}

// TestStallFaultTimesOut checks the watchdog path: a server that goes
// silent after sending headers must trip the client timeout — not hang
// the run — and the request must complete on retry.
func TestStallFaultTimesOut(t *testing.T) {
	site := testSite(t)
	sc := Scenario{
		Server:   httpserver.ProfileApache,
		Client:   httpclient.ModeHTTP11Pipelined,
		Env:      netem.WAN,
		Workload: httpclient.FirstTime,
		Seed:     3,
		Fault:    faults.Stall,
	}
	res, err := Run(sc, site)
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	c := res.Client
	if !c.Done || c.Responses200 != 43 {
		t.Fatalf("done=%v 200s=%d, want all 43", c.Done, c.Responses200)
	}
	if c.Timeouts < 1 {
		t.Fatal("stalled response did not trip the watchdog")
	}
	if c.RequestsFailed != 0 {
		t.Fatalf("%d requests permanently failed", c.RequestsFailed)
	}
}

// TestFaultMetricsFilled checks the recovery counters reach the
// structured metrics record.
func TestFaultMetricsFilled(t *testing.T) {
	sc := Scenario{
		Server:   httpserver.ProfileApache,
		Client:   httpclient.ModeHTTP11Pipelined,
		Env:      netem.WAN,
		Workload: httpclient.FirstTime,
		Seed:     7,
		Fault:    faults.EarlyClose,
	}
	var m exp.Metrics
	if _, err := Run(sc, testSite(t), WithMetrics(&m)); err != nil {
		t.Fatal(err)
	}
	if m.Retried < 1 || m.RequestsRecovered < 1 {
		t.Fatalf("metrics retried=%d recovered=%d, want both >= 1", m.Retried, m.RequestsRecovered)
	}
	if m.FaultsInjected < 1 {
		t.Fatalf("metrics faults_injected=%d, want >= 1", m.FaultsInjected)
	}
	if !strings.Contains(m.Scenario, "early-close") {
		t.Fatalf("metrics scenario %q does not name the fault", m.Scenario)
	}
}

func TestParseScenarioFaults(t *testing.T) {
	sc, err := ParseScenario("apache/pipelined/WAN/first/early-close")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fault != faults.EarlyClose || sc.Proxy != nil {
		t.Fatalf("got fault=%v proxy=%v", sc.Fault, sc.Proxy)
	}

	sc, err = ParseScenario("apache/pipelined/PPP/first/proxy:WAN:warm/burst-loss")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fault != faults.BurstLoss || sc.Proxy == nil || !sc.Proxy.Warm {
		t.Fatalf("got fault=%v proxy=%+v", sc.Fault, sc.Proxy)
	}

	// A fault profile must come last.
	if _, err = ParseScenario("apache/pipelined/WAN/first/early-close/proxy:WAN"); err == nil {
		t.Fatal("fault before topology accepted")
	} else if !strings.Contains(err.Error(), "final part") {
		t.Fatalf("wrong error: %v", err)
	}

	// Unknown fifth part: the error must enumerate the fault names.
	_, err = ParseScenario("apache/pipelined/WAN/first/bogus")
	if err == nil {
		t.Fatal("bogus fifth part accepted")
	}
	for _, name := range faults.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list fault profile %q", err, name)
		}
	}

	// Unknown sixth part: same contract via faults.Parse.
	_, err = ParseScenario("apache/pipelined/WAN/first/proxy:WAN/bogus")
	if err == nil {
		t.Fatal("bogus sixth part accepted")
	}
	if !strings.Contains(err.Error(), "early-close") {
		t.Fatalf("error %q does not enumerate fault profiles", err)
	}
}

func TestScenarioStringNamesFault(t *testing.T) {
	sc := Scenario{
		Server:   httpserver.ProfileApache,
		Client:   httpclient.ModeHTTP11Pipelined,
		Env:      netem.WAN,
		Workload: httpclient.FirstTime,
		Fault:    faults.Flap,
	}
	if s := sc.String(); !strings.Contains(s, "flap") {
		t.Fatalf("Scenario.String() = %q, missing fault segment", s)
	}
}
