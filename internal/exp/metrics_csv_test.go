package exp

import (
	"bytes"
	"strings"
	"testing"
)

// TestCSVHeaderPinned pins the CSV header: the fixed columns in Metrics
// field order, then the optional distribution columns sorted by name.
// Records lacking a key emit an empty cell.
func TestCSVHeaderPinned(t *testing.T) {
	c := NewCollector()
	c.Add(Metrics{Scenario: "s1", Seed: 1, ElapsedSeconds: 2})
	c.Add(Metrics{Scenario: "s2", Seed: 2, Dist: map[string]float64{
		// Inserted in scrambled order; the header must come out sorted.
		"lat_ttfb_ms_p50":  3,
		"lat_queue_ms_p50": 1,
		"lat_total_ms_p99": 9,
		"lat_total_ms_p50": 2,
	}})
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines, want 3:\n%s", len(lines), buf.String())
	}
	wantHeader := "experiment,scenario,seed,run," +
		"packets,packets_c2s,packets_s2c," +
		"payload_bytes,wire_bytes,link_wire_bytes," +
		"overhead_pct,elapsed_seconds," +
		"retransmissions,rto_timeouts,drops," +
		"dials,sockets_used,max_open_conns," +
		"client_cpu_seconds,server_cpu_seconds," +
		"responses_200,responses_304,responses_206," +
		"errors,retried," +
		"timeouts,requests_recovered,requests_failed," +
		"wasted_bytes,recovery_seconds,fallbacks,faults_injected," +
		"streams_opened,push_promised,push_used," +
		"push_wasted_bytes,header_bytes_saved,flow_control_stalls," +
		"streams_reset,goaways,deadlocks_detected," +
		"timeline_events,timeline_spans," +
		"blame_connect_ms,blame_rto_ms,blame_nagle_ms," +
		"blame_flow_ms,blame_slowstart_ms,blame_server_ms," +
		"blame_hol_ms,blame_wire_ms,critical_path_ms," +
		"sim_events," +
		"cache_hits,cache_misses,cache_revalidations," +
		"cache_hit_ratio,cache_bytes_saved,upstream_requests," +
		"origin_packets,origin_bytes," +
		"lat_queue_ms_p50,lat_total_ms_p50,lat_total_ms_p99,lat_ttfb_ms_p50"
	if lines[0] != wantHeader {
		t.Fatalf("header:\n got %s\nwant %s", lines[0], wantHeader)
	}
	// The dist-less record renders the optional columns as empty cells.
	if !strings.HasSuffix(lines[1], ",,,,") {
		t.Fatalf("record without Dist lacks empty optional cells: %s", lines[1])
	}
	if !strings.HasSuffix(lines[2], "1.000000,2.000000,9.000000,3.000000") {
		t.Fatalf("optional cells not in sorted-key order: %s", lines[2])
	}
}

// TestCSVWithoutDistUnchanged: with no distribution metrics anywhere,
// the CSV is exactly the legacy fixed-column file.
func TestCSVWithoutDistUnchanged(t *testing.T) {
	c := NewCollector()
	c.Add(Metrics{Scenario: "s", Seed: 3})
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if got, want := len(strings.Split(header, ",")), len(csvColumns); got != want {
		t.Fatalf("dist-free CSV has %d columns, want %d", got, want)
	}
	if strings.Contains(header, "lat_") {
		t.Fatalf("dist-free CSV grew latency columns: %s", header)
	}
}

// TestCSVDeterministicAcrossInsertOrder: two collectors fed the same
// records in different orders emit byte-identical CSV.
func TestCSVDeterministicAcrossInsertOrder(t *testing.T) {
	recs := []Metrics{
		{Experiment: "e", Scenario: "a", Seed: 1, Dist: map[string]float64{"lat_total_ms_p50": 5}},
		{Experiment: "e", Scenario: "a", Seed: 2},
		{Experiment: "e", Scenario: "b", Seed: 1, Dist: map[string]float64{"lat_queue_ms_p90": 7}},
	}
	fwd, rev := NewCollector(), NewCollector()
	for i := range recs {
		fwd.Add(recs[i])
		rev.Add(recs[len(recs)-1-i])
	}
	var a, b bytes.Buffer
	if err := fwd.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := rev.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("CSV depends on insertion order:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestCells aggregates records into per-cell summaries.
func TestCells(t *testing.T) {
	c := NewCollector()
	for i, sec := range []float64{1.0, 1.2, 1.1} {
		c.Add(Metrics{Experiment: "e", Scenario: "a", Seed: uint64(i), Run: i,
			Packets: 100 + i, ElapsedSeconds: sec,
			Dist: map[string]float64{"lat_total_ms_p50": 10 * float64(i+1)}})
	}
	c.Add(Metrics{Experiment: "e", Scenario: "b", Seed: 9, ElapsedSeconds: 5, Packets: 7})
	cells := c.Cells()
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	a := cells[0]
	if a.Scenario != "a" || a.N != 3 {
		t.Fatalf("first cell %+v", a)
	}
	if a.Elapsed.N != 3 || a.Elapsed.Mean < 1.09 || a.Elapsed.Mean > 1.11 {
		t.Fatalf("elapsed summary %+v", a.Elapsed)
	}
	if a.Elapsed.CI95 <= 0 {
		t.Fatalf("no CI on replicated cell: %+v", a.Elapsed)
	}
	if got := a.Dist["lat_total_ms_p50"]; got != 20 {
		t.Fatalf("dist mean %g, want 20", got)
	}
	b := cells[1]
	if b.Scenario != "b" || b.N != 1 || b.Elapsed.CI95 != 0 || b.Dist != nil {
		t.Fatalf("second cell %+v", b)
	}
}
