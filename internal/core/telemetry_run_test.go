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

// newMonitor returns a monitor streaming into the returned buffer and
// dumping into the returned directory, owned by the calling test alone.
func newMonitor(t *testing.T) (*telemetry.Monitor, *bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	dir := t.TempDir()
	fl, err := telemetry.NewFlight(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	st := telemetry.NewStream(&buf)
	return &telemetry.Monitor{Stream: st, Flight: fl, Progress: telemetry.NewReporter(new(telemetry.Metrics), st, nil)}, &buf, dir
}

// TestTelemetryDoesNotPerturb is the contract the whole telemetry layer
// hangs on: with a stream and flight recorder armed the simulation must
// produce byte-identical artifacts — same packet trace, same Perfetto
// timeline, same client counters. Telemetry observes the run; it never
// steers it.
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

	mon, _, _ := newMonitor(t)
	obsPcap, obsPerfetto, obsClient := runArtifacts(WithMonitor(mon))
	if !bytes.Equal(plainPcap, obsPcap) {
		t.Error("pcap differs with telemetry armed")
	}
	if !bytes.Equal(plainPerfetto, obsPerfetto) {
		t.Error("Perfetto timeline differs with telemetry armed")
	}
	if plainClient != obsClient {
		t.Errorf("client result differs with telemetry armed:\n  plain    %+v\n  observed %+v", plainClient, obsClient)
	}
}

// TestFlightDumpOnWatchdog runs a stall-fault cell — the scripted way to
// trip the client watchdog — and checks the recorder leaves a parseable
// pair of artifacts behind and announces them on the stream.
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
	mon, stream, flightDir := newMonitor(t)
	{
		res, err := Run(sc, site, WithMonitor(mon))
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

		// The stream must carry a flight record pointing at the dump.
		counts, err := telemetry.ValidateStream(bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatalf("stream does not validate: %v", err)
		}
		if counts[telemetry.RecordFlight] < 1 {
			t.Fatalf("stream has %d flight records, want >= 1", counts[telemetry.RecordFlight])
		}
		if !strings.Contains(stream.String(), `"reason":"watchdog"`) {
			t.Fatal("flight record on the stream does not carry the watchdog reason")
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
	crash := func(c *runConfig) { c.afterDrive = func() { panic("telemetry test: injected crash") } }

	mon, _, flightDir := newMonitor(t)
	{
		recovered := func() (r any) {
			defer func() { r = recover() }()
			Run(sc, site, WithMonitor(mon), crash)
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
	}
}

// TestMonitorsAreIsolated runs two observed sweeps and an unobserved
// one at once, on pools of two, over fault grids whose stall cells trip
// the recovery watchdog. Each monitor's stream must carry progress
// records for exactly its own runs, its flight directory exactly its own
// watchdog dumps, and the unobserved sweep must reach neither.
func TestMonitorsAreIsolated(t *testing.T) {
	t.Parallel()
	site := testSite(t)
	type sweep struct {
		name     string
		mode     httpclient.Mode
		mon      *telemetry.Monitor
		stream   *bytes.Buffer
		dir      string
		measured []Measured
	}
	sweeps := []*sweep{
		{name: "a", mode: httpclient.ModeHTTP11Pipelined},
		{name: "b", mode: httpclient.ModeHTTP11Serial},
		{name: "unobserved", mode: httpclient.ModeHTTP10},
	}
	sweeps[0].mon, sweeps[0].stream, sweeps[0].dir = newMonitor(t)
	sweeps[1].mon, sweeps[1].stream, sweeps[1].dir = newMonitor(t)
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
			sw.measured, err = Sweep{Runs: 2, Parallel: 2, Experiment: sw.name, Monitor: sw.mon}.Measure(g, site)
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
		// The runs the sweep made, and the watchdog dumps they owe.
		want, dumps := map[string]bool{}, map[string]int{}
		for _, row := range sw.measured {
			for _, res := range row.Results[0] {
				label := res.Scenario.String()
				want[fmt.Sprintf("%s/%s#%d", sw.name, label, res.Scenario.Seed)] = true
				if res.Client.Timeouts > 0 {
					dumps[label]++
				}
			}
		}
		if len(dumps) == 0 {
			t.Fatalf("sweep %s: no stall run tripped the watchdog; dump isolation untested", sw.name)
		}

		got, flights, announced := map[string]bool{}, map[string]int{}, map[string]bool{}
		for _, line := range strings.Split(strings.TrimSpace(sw.stream.String()), "\n") {
			var rec struct {
				T, Experiment, Scenario, Label, Reason string
				Seed                                   uint64
				Paths                                  []string
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			switch rec.T {
			case telemetry.RecordProgress:
				got[fmt.Sprintf("%s/%s#%d", rec.Experiment, rec.Scenario, rec.Seed)] = true
			case telemetry.RecordFlight:
				flights[rec.Label+"-"+rec.Reason]++
				for _, p := range rec.Paths {
					announced[p] = true
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sweep %s: stream carries progress for runs %v, want its own %v", sw.name, got, want)
		}

		wantFlights := map[string]int{}
		for label, n := range dumps {
			wantFlights[label+"-watchdog"] = n
		}
		if !reflect.DeepEqual(flights, wantFlights) {
			t.Errorf("sweep %s: stream announces dumps %v, want its own %v", sw.name, flights, wantFlights)
		}
		// The dumps announced are the sweep's own, so the directory must
		// hold those files and no others.
		entries, err := os.ReadDir(sw.dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]bool{}
		for _, e := range entries {
			files[filepath.Join(sw.dir, e.Name())] = true
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
