package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/exp"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/webgen"
)

// testScenario is a cheap LAN cell used throughout the sweep tests.
func testScenario() Scenario {
	return Scenario{
		Server: httpserver.ProfileApache, Client: httpclient.ModeHTTP11Pipelined,
		Env: netem.LAN, Workload: httpclient.FirstTime, Seed: 42,
	}
}

// RunAveraged executes the scenario across the sweep's population and
// averages the measurements, like the paper's five-run methodology: the
// one-cell grid at the tables' seed stride.
func (sw Sweep) RunAveraged(sc Scenario, site *webgen.Site) (Avg, error) {
	measured, err := sw.Measure(Grid{Rows: []GridRow{{Cells: []Scenario{sc}}}, Stride: 7919}, site)
	if err != nil {
		return Avg{}, err
	}
	return Average(measured[0].Results[0]), nil
}

// TestSweepMatchesLegacyRunAveraged pins the compatibility contract: a
// single-family sweep reproduces the historical RunAveraged schedule
// exactly.
func TestSweepMatchesLegacyRunAveraged(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario()
	want, err := Sweep{Runs: 3}.RunAveraged(sc, site)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep{Runs: 3, Parallel: 8}.RunAveraged(sc, site)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Errorf("parallel sweep diverged from legacy: %+v vs %+v", got, want)
	}
}

// TestSweepParallelDeterminism runs the same sweep serially and on a
// wide pool and requires identical aggregates and identical collected
// metrics records.
func TestSweepParallelDeterminism(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario()
	run := func(parallel int) (Avg, []exp.Metrics, error) {
		col := exp.NewCollector()
		sw := Sweep{Runs: 2, Seeds: 2, Parallel: parallel, Experiment: "det", Collector: col}
		avg, err := sw.RunAveraged(sc, site)
		return avg, col.Records(), err
	}
	serialAvg, serialRecs, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	parAvg, parRecs, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if serialAvg != parAvg {
		t.Errorf("aggregates differ: serial %+v parallel %+v", serialAvg, parAvg)
	}
	// SimEventsPerSec is wall-clock throughput and legitimately varies
	// between executions; everything else must match exactly.
	for i := range serialRecs {
		serialRecs[i].SimEventsPerSec = 0
	}
	for i := range parRecs {
		parRecs[i].SimEventsPerSec = 0
	}
	if !reflect.DeepEqual(serialRecs, parRecs) {
		t.Errorf("metrics records differ between parallel levels")
	}
	if len(serialRecs) != 4 {
		t.Fatalf("got %d records, want 4", len(serialRecs))
	}
	// CSV emission must be byte-identical too.
	var a, b bytes.Buffer
	ca, cb := exp.NewCollector(), exp.NewCollector()
	for _, m := range serialRecs {
		ca.Add(m)
	}
	for _, m := range parRecs {
		cb.Add(m)
	}
	if err := ca.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := cb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("CSV output differs between parallel levels")
	}
}

// TestWithMetricsCounters checks the structured record against the run
// result it was filled from.
func TestWithMetricsCounters(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario()
	var m exp.Metrics
	res, err := Run(sc, site, WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if m.Scenario != sc.String() {
		t.Errorf("Scenario = %q, want %q", m.Scenario, sc.String())
	}
	if m.Seed != sc.Seed {
		t.Errorf("Seed = %d, want %d", m.Seed, sc.Seed)
	}
	if m.Packets != res.Stats.Packets || m.Packets <= 0 {
		t.Errorf("Packets = %d, want %d (> 0)", m.Packets, res.Stats.Packets)
	}
	if m.PacketsC2S+m.PacketsS2C != m.Packets {
		t.Errorf("directional packets %d+%d != total %d", m.PacketsC2S, m.PacketsS2C, m.Packets)
	}
	if m.PayloadBytes != res.Stats.PayloadBytes {
		t.Errorf("PayloadBytes = %d, want %d", m.PayloadBytes, res.Stats.PayloadBytes)
	}
	if m.WireBytes != m.PayloadBytes+int64(m.Packets)*int64(netem.IPTCPHeaderBytes) {
		t.Errorf("WireBytes = %d inconsistent with %d packets over %d payload bytes",
			m.WireBytes, m.Packets, m.PayloadBytes)
	}
	// Without modem compression the link serializes full wire bytes
	// plus per-packet framing, so it can never be below WireBytes.
	if m.LinkWireBytes < m.WireBytes {
		t.Errorf("LinkWireBytes = %d < WireBytes = %d", m.LinkWireBytes, m.WireBytes)
	}
	if m.ElapsedSeconds <= 0 {
		t.Errorf("ElapsedSeconds = %v, want > 0", m.ElapsedSeconds)
	}
	if m.Dials < 1 || m.SocketsUsed != res.Client.SocketsUsed {
		t.Errorf("Dials = %d, SocketsUsed = %d (result %d)", m.Dials, m.SocketsUsed, res.Client.SocketsUsed)
	}
	if m.MaxOpenConns < 1 {
		t.Errorf("MaxOpenConns = %d, want >= 1", m.MaxOpenConns)
	}
	if m.ClientCPUSeconds <= 0 || m.ServerCPUSeconds <= 0 {
		t.Errorf("CPU seconds = %v / %v, want > 0", m.ClientCPUSeconds, m.ServerCPUSeconds)
	}
	if m.Responses200 != res.Client.Responses200 {
		t.Errorf("Responses200 = %d, want %d", m.Responses200, res.Client.Responses200)
	}
}

// TestSweepSeedFamilies checks that Seeds widens the population with
// distinct seeds while family 0 keeps the legacy schedule.
func TestSweepSeedFamilies(t *testing.T) {
	site, err := DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario()
	col := exp.NewCollector()
	if _, err := (Sweep{Runs: 2, Seeds: 2, Collector: col}).RunAveraged(sc, site); err != nil {
		t.Fatal(err)
	}
	recs := col.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	seen := make(map[uint64]bool)
	for _, m := range recs {
		if seen[m.Seed] {
			t.Errorf("duplicate seed %d across families", m.Seed)
		}
		seen[m.Seed] = true
	}
	if !seen[sc.Seed] || !seen[sc.Seed+7919] {
		t.Errorf("family 0 lost the legacy seed schedule: %v", seen)
	}
}

// A grid whose cells share their revisions serves each repetition of
// every cell one revised site, the one a lone run synthesizes at that
// seed, and measures exactly what lone runs measure — with the cells'
// repetitions racing for the revision on a wide pool.
func TestSweepSharesRevisionsBetweenCells(t *testing.T) {
	site := testSite(t)
	sc := scenario(httpserver.ProfileApache, httpclient.ModeHTTP11Pipelined, netem.PPP, httpclient.Revalidate)
	sc.ReviseFraction, sc.Seed = 0.3, 9900
	g := Grid{Stride: 13, Rows: []GridRow{{Cells: []Scenario{sc, sc}}, {Cells: []Scenario{sc}}}}
	measured, err := Sweep{Runs: 2, Seeds: 2, Parallel: 4}.Measure(g, site)
	if err != nil {
		t.Fatal(err)
	}
	cells := slices.Concat(measured[0].Results, measured[1].Results)
	first := cells[0]
	if len(first) != 4 {
		t.Fatalf("%d repetitions, want 4", len(first))
	}
	for i := range first {
		lone := sc
		lone.Seed = sc.Seed + uint64(i/2)*seedFamilyStride + uint64(i%2)*13
		lone.Jitter = true
		want, err := Run(lone, site)
		if err != nil {
			t.Fatal(err)
		}
		rev := first[i].served
		if rev == site || rev.HTML.ETag != want.served.HTML.ETag {
			t.Errorf("repetition %d serves a site other than its seed's revision", i)
		}
		if i > 0 && rev == first[i-1].served {
			t.Errorf("repetitions %d and %d share a revision", i-1, i)
		}
		for k, results := range cells {
			if results[i].served != rev {
				t.Errorf("cell %d repetition %d synthesized its own revision", k, i)
			}
			if results[i].Stats != want.Stats || results[i].Client != want.Client {
				t.Errorf("cell %d repetition %d measures differently when the revision is shared", k, i)
			}
		}
	}
}
