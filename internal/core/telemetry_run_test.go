package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// newFlight returns a flight recorder dumping into the returned
// directory, owned by the calling test alone.
func newFlight(t *testing.T) (*telemetry.Flight, string) {
	t.Helper()
	dir := t.TempDir()
	fl, err := telemetry.NewFlight(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fl, dir
}

// flightIndex reads dir's index.txt: one line per dump, split into its
// tab-separated fields (number, reason, label, kept, dropped, artifacts).
func flightIndex(t *testing.T, dir string) [][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "index.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		lines = append(lines, strings.Split(line, "\t"))
	}
	return lines
}

// TestTelemetryDoesNotPerturb is the contract the flight recorder hangs
// on: with it armed the simulation must produce byte-identical artifacts
// — same packet trace, same Perfetto timeline, same client counters. The
// recorder observes the run; it never steers it.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	t.Parallel()
	site := testSite(t)
	sc := Scenario{
		Server:   httpserver.ProfileApache,
		Client:   httpclient.ModeHTTP11Pipelined,
		Env:      netem.WAN,
		Workload: httpclient.FirstTime,
		Seed:     11,
		Fault:    faults.BurstLoss, // retries + watchdog traffic: the busiest code paths
	}

	runArtifacts := func(opts ...Option) (pcap, perfetto []byte, cl httpclient.Result) {
		res, err := Run(sc, site, append(opts, WithCapture(), WithTimeline(), WithStats())...)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		var pc, pf bytes.Buffer
		if err := res.Capture.WritePcap(&pc); err != nil {
			t.Fatal(err)
		}
		if err := res.Timeline.WritePerfettoPath(&pf, nil); err != nil {
			t.Fatal(err)
		}
		return pc.Bytes(), pf.Bytes(), res.Client
	}

	plainPcap, plainPerfetto, plainClient := runArtifacts()

	fl, _ := newFlight(t)
	obsPcap, obsPerfetto, obsClient := runArtifacts(WithFlight(fl))
	if !bytes.Equal(plainPcap, obsPcap) {
		t.Error("pcap differs with the flight recorder armed")
	}
	if !bytes.Equal(plainPerfetto, obsPerfetto) {
		t.Error("Perfetto timeline differs with the flight recorder armed")
	}
	if plainClient != obsClient {
		t.Errorf("client result differs with the flight recorder armed:\n  plain    %+v\n  observed %+v", plainClient, obsClient)
	}
}

// TestFlightDumpOnWatchdog runs a stall-fault cell — the scripted way to
// trip the client watchdog — and checks the recorder leaves a parseable
// pair of artifacts behind and announces them in its index.
func TestFlightDumpOnWatchdog(t *testing.T) {
	t.Parallel()
	site := testSite(t)
	sc := Scenario{
		Server:   httpserver.ProfileApache,
		Client:   httpclient.ModeHTTP11Pipelined,
		Env:      netem.WAN,
		Workload: httpclient.FirstTime,
		Seed:     3,
		Fault:    faults.Stall,
	}
	fl, flightDir := newFlight(t)
	{
		res, err := Run(sc, site, WithFlight(fl), WithTimeline())
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if res.Client.Timeouts < 1 {
			t.Fatal("stall fault did not trip the watchdog; dump trigger untested")
		}

		perfettoPath := findDump(t, flightDir, "watchdog", ".perfetto.json")
		pcapPath := findDump(t, flightDir, "watchdog", ".pcap")

		// The Perfetto dump must be a well-formed trace with events.
		data, err := os.ReadFile(perfettoPath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("flight Perfetto dump is not valid JSON: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatal("flight Perfetto dump has no trace events")
		}

		// The pcap must survive the analyzer-grade parser.
		raw, err := os.ReadFile(pcapPath)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := trace.ParsePcap(raw)
		if err != nil {
			t.Fatalf("flight pcap dump does not parse: %v", err)
		}
		if len(pf.Packets) == 0 {
			t.Fatal("flight pcap dump has no packets")
		}

		// The index must announce exactly that dump: the watchdog reason,
		// the scenario, every event of the run kept and none dropped, and
		// both artifacts.
		index := flightIndex(t, flightDir)
		if len(index) != 1 {
			t.Fatalf("index has %d lines, want 1: %q", len(index), index)
		}
		line := index[0]
		want := filepath.Base(perfettoPath) + " " + filepath.Base(pcapPath)
		if len(line) != 6 || line[1] != "watchdog" || line[2] != sc.String() || line[5] != want {
			t.Fatalf("index line = %q, want the watchdog dump of %s naming %s", line, sc, want)
		}
		if kept := fmt.Sprintf("kept %d", res.Timeline.Len()); line[3] != kept || line[4] != "dropped 0" {
			t.Fatalf("index line = %q, want %q and \"dropped 0\"", line, kept)
		}
	}
}

// TestFlightDumpOnPanic pins the crash path: a panic on the simulation
// goroutine must leave a dump behind and then propagate — the recorder
// may not swallow the crash.
func TestFlightDumpOnPanic(t *testing.T) {
	t.Parallel()
	site := testSite(t)
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.LAN, httpclient.FirstTime)
	crash := func(c *runConfig) { c.afterDrive = func() { panic("flight test: injected crash") } }

	fl, flightDir := newFlight(t)
	{
		recovered := func() (r any) {
			defer func() { r = recover() }()
			Run(sc, site, WithFlight(fl), crash)
			return nil
		}()
		if recovered == nil {
			t.Fatal("injected panic was swallowed by the flight recorder")
		}
		if s, ok := recovered.(string); !ok || !strings.Contains(s, "injected crash") {
			t.Fatalf("recovered %v, want the injected panic value", recovered)
		}
		findDump(t, flightDir, "panic", ".perfetto.json")
		raw, err := os.ReadFile(findDump(t, flightDir, "panic", ".pcap"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ParsePcap(raw); err != nil {
			t.Fatalf("panic-path pcap does not parse: %v", err)
		}
		if index := flightIndex(t, flightDir); len(index) != 1 || index[0][1] != "panic" {
			t.Fatalf("index = %q, want one panic dump", index)
		}
	}
}

// TestMonitorsAreIsolated runs two sweeps with flight recorders and an
// unobserved one at once, on pools of two, over fault grids whose stall
// cells trip the recovery watchdog. Each recorder's directory must hold
// exactly its own sweep's watchdog dumps, all announced in its index,
// and the unobserved sweep must reach neither.
func TestMonitorsAreIsolated(t *testing.T) {
	t.Parallel()
	site := testSite(t)
	type sweep struct {
		name     string
		mode     httpclient.Mode
		flight   *telemetry.Flight
		dir      string
		measured []Measured
	}
	sweeps := []*sweep{
		{name: "a", mode: httpclient.ModeHTTP11Pipelined},
		{name: "b", mode: httpclient.ModeHTTP11Serial},
		{name: "unobserved", mode: httpclient.ModeHTTP10},
	}
	sweeps[0].flight, sweeps[0].dir = newFlight(t)
	sweeps[1].flight, sweeps[1].dir = newFlight(t)
	var wg sync.WaitGroup
	for _, sw := range sweeps {
		clean := scenario(httpserver.ProfileApache, sw.mode, netem.WAN, httpclient.FirstTime)
		stall := clean
		stall.Fault = faults.Stall
		g := Grid{Stride: 7, Rows: []GridRow{{Cells: []Scenario{clean}}, {Cells: []Scenario{stall}}}}
		wg.Add(1)
		go func(sw *sweep) {
			defer wg.Done()
			var err error
			sw.measured, err = Sweep{Runs: 2, Parallel: 2, Experiment: sw.name, Flight: sw.flight}.Measure(g, site)
			if err != nil {
				t.Errorf("sweep %s: %v", sw.name, err)
			}
		}(sw)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, sw := range sweeps[:2] {
		// The watchdog dumps the sweep's runs owe.
		dumps := map[string]int{}
		for _, row := range sw.measured {
			for _, res := range row.Results[0] {
				if res.Client.Timeouts > 0 {
					dumps[res.Scenario.String()+"-watchdog"]++
				}
			}
		}
		if len(dumps) == 0 {
			t.Fatalf("sweep %s: no stall run tripped the watchdog; dump isolation untested", sw.name)
		}

		flights, announced := map[string]int{}, map[string]bool{"index.txt": true}
		for _, line := range flightIndex(t, sw.dir) {
			flights[line[2]+"-"+line[1]]++
			for _, name := range strings.Fields(line[5]) {
				announced[name] = true
			}
		}
		if !reflect.DeepEqual(flights, dumps) {
			t.Errorf("sweep %s: index announces dumps %v, want its own %v", sw.name, flights, dumps)
		}
		// The dumps announced are the sweep's own, so the directory must
		// hold those files and the index, and no others.
		entries, err := os.ReadDir(sw.dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]bool{}
		for _, e := range entries {
			files[e.Name()] = true
		}
		if !reflect.DeepEqual(files, announced) {
			t.Errorf("sweep %s: flight dir holds %v, want exactly the announced %v", sw.name, names(entries), announced)
		}
	}
}

// findDump locates the single flight artifact for reason with the given
// suffix, failing the test when it is missing or ambiguous.
func findDump(t *testing.T, dir, reason, suffix string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var match string
	for _, e := range entries {
		name := e.Name()
		if strings.Contains(name, "-"+reason+suffix) && strings.HasSuffix(name, suffix) {
			if match != "" {
				t.Fatalf("multiple %s dumps with suffix %s in %s", reason, suffix, dir)
			}
			match = filepath.Join(dir, name)
		}
	}
	if match == "" {
		t.Fatalf("no %s dump with suffix %s in %s (have %v)", reason, suffix, dir, names(entries))
	}
	return match
}

func names(entries []os.DirEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name()
	}
	return out
}
