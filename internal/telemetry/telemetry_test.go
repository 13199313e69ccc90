package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsAggregateConcurrently updates one metric set from many
// goroutines and checks a sample record carries all seven metrics under
// their names.
func TestMetricsAggregateConcurrently(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Runs.Add(1)
				m.SimPending.Add(1)
				m.SimPending.Add(-1)
				setMax(&m.SimWheelDepth, int64(i))
				m.RunSimMS.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Runs.Load(); got != 8000 {
		t.Fatalf("runs = %d, want 8000", got)
	}
	if got := m.SimPending.Load(); got != 0 {
		t.Fatalf("gauge after balanced deltas = %d, want 0", got)
	}
	if got := m.SimWheelDepth.Load(); got != 999 {
		t.Fatalf("high-water gauge = %d, want 999", got)
	}
	if got := m.RunSimMS.Snapshot().Count; got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
	counters, gauges, hists := m.counters(), m.gauges(), m.hists()
	for _, name := range []string{"runs_total", "cells_total", "sim_events_total"} {
		if _, ok := counters[name]; !ok {
			t.Errorf("counters lack %s: %v", name, counters)
		}
	}
	for _, name := range []string{"sim_pending", "sim_pool_in_use", "sim_wheel_depth"} {
		if _, ok := gauges[name]; !ok {
			t.Errorf("gauges lack %s: %v", name, gauges)
		}
	}
	if _, ok := hists["run_sim_ms"]; !ok || len(counters)+len(gauges)+len(hists) != 7 {
		t.Errorf("sample maps are not the seven metrics: %v %v %v", counters, gauges, hists)
	}
}

func TestStreamMetaFirstAndValidates(t *testing.T) {
	var buf bytes.Buffer
	st := NewStream(&buf)
	st.Emit(SampleRecord{T: RecordSample, WallMS: st.WallMS()})
	st.Emit(ProgressRecord{T: RecordProgress, WallMS: st.WallMS(), RunsDone: 1, RunsPerSec: 2})
	st.Emit(FlightRecord{T: RecordFlight, Reason: "watchdog"})
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	first := strings.SplitN(buf.String(), "\n", 2)[0]
	var meta MetaRecord
	if err := json.Unmarshal([]byte(first), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.T != RecordMeta || meta.Schema != SchemaVersion {
		t.Fatalf("first record = %+v, want meta with schema %s", meta, SchemaVersion)
	}
	if meta.GoVersion == "" || meta.GOMAXPROCS <= 0 || meta.NumCPU <= 0 {
		t.Fatalf("meta record missing environment facts: %+v", meta)
	}

	counts, err := ValidateStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateStream: %v", err)
	}
	for typ, want := range map[string]int{RecordMeta: 1, RecordSample: 1, RecordProgress: 1, RecordFlight: 1} {
		if counts[typ] != want {
			t.Fatalf("counts[%s] = %d, want %d (all: %v)", typ, counts[typ], want, counts)
		}
	}
}

func TestValidateStreamRejectsBadStreams(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"not JSON":        "hello\n",
		"meta not first":  `{"t":"sample","wall_ms":1,"heap_alloc_bytes":1,"gc_count":0,"sim_events_per_sec":0}` + "\n",
		"wrong schema":    `{"t":"meta","schema":"telemetry/999"}` + "\n",
		"unknown type":    `{"t":"meta","schema":"telemetry/1"}` + "\n" + `{"t":"mystery"}` + "\n",
		"sample missing":  `{"t":"meta","schema":"telemetry/1"}` + "\n" + `{"t":"sample"}` + "\n",
		"flight missing":  `{"t":"meta","schema":"telemetry/1"}` + "\n" + `{"t":"flight"}` + "\n",
		"progress string": `{"t":"meta","schema":"telemetry/1"}` + "\n" + `{"t":"progress","wall_ms":"x","runs_done":1,"runs_per_sec":0}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateStream(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ValidateStream accepted invalid input %q", name, in)
		}
	}
}

func TestSamplerEmitsFinalSample(t *testing.T) {
	var buf bytes.Buffer
	st := NewStream(&buf)
	var m Metrics
	m.SimEvents.Add(12345)
	s := StartSampler(st, &m, 10*time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	s.Close()

	counts, err := ValidateStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("sampler stream invalid: %v\n%s", err, buf.String())
	}
	if counts[RecordSample] < 1 {
		t.Fatalf("no sample records after Close: %v", counts)
	}
	if !strings.Contains(buf.String(), `"sim_events_total":12345`) {
		t.Fatalf("sample records missing the event counter:\n%s", buf.String())
	}
	// A metric no run has touched reads 0; it is not absent.
	if !strings.Contains(buf.String(), `"runs_total":0`) {
		t.Fatalf("sample records omit an untouched counter:\n%s", buf.String())
	}
}

func TestSimTrackerDeltas(t *testing.T) {
	var m Metrics
	a := NewSimTracker(&m)
	b := NewSimTracker(&m)
	a.Poll(100, 10, 2, 20)
	b.Poll(50, 5, 3, 8)
	if got := m.SimEvents.Load(); got != 150 {
		t.Fatalf("events total = %d, want 150", got)
	}
	if got := m.SimPending.Load(); got != 15 {
		t.Fatalf("pending = %d, want 15 (10+5 across runs)", got)
	}
	if got := m.SimWheelDepth.Load(); got != 3 {
		t.Fatalf("wheel depth = %d, want high-water 3", got)
	}
	a.Poll(180, 4, 1, 12) // pending shrank: delta is signed
	if got := m.SimPending.Load(); got != 9 {
		t.Fatalf("pending = %d, want 9 (4+5)", got)
	}
	a.Finish(200)
	b.Finish(60)
	if got := m.SimEvents.Load(); got != 260 {
		t.Fatalf("events total = %d, want 260", got)
	}
	if got := m.SimPending.Load(); got != 0 {
		t.Fatalf("pending after both runs finished = %d, want 0", got)
	}
	if got := m.SimPoolInUse.Load(); got != 0 {
		t.Fatalf("pool in use after finish = %d, want 0", got)
	}
}

// TestReporterEWMAAndETA drives the reporter on a synthetic clock and
// reads its progress records: runs arriving every 100ms give a 10
// runs/sec EWMA exactly (constant input), and two of four experiments
// done at a constant pace predict the remaining two at that pace.
func TestReporterEWMAAndETA(t *testing.T) {
	var buf bytes.Buffer
	st := NewStream(&buf)
	var human bytes.Buffer
	var m Metrics
	r := NewReporter(&m, st, &human)
	now := time.Unix(1000, 0)
	r.now = func() time.Time { return now }
	r.start, r.lastExpMark = now, now
	r.SetTotalExperiments(4)
	last := func() ProgressRecord {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var rec ProgressRecord
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil || rec.T != RecordProgress {
			t.Fatalf("last record %q is not a progress record (%v)", lines[len(lines)-1], err)
		}
		return rec
	}

	for i := 0; i < 20; i++ {
		now = now.Add(100 * time.Millisecond)
		r.Observe(ProgressEvent{Experiment: "t", Scenario: "s", Run: i, CellDone: i%5 == 4, SimSeconds: 1.5})
	}
	rec := last()
	if rec.RunsPerSec < 9.99 || rec.RunsPerSec > 10.01 {
		t.Fatalf("EWMA rate = %v, want 10 (constant 100ms gaps)", rec.RunsPerSec)
	}
	if rec.RunsDone != 20 || rec.CellsDone != 4 {
		t.Fatalf("done = %d runs, %d cells; want 20, 4", rec.RunsDone, rec.CellsDone)
	}
	if m.Runs.Load() != 20 || m.Cells.Load() != 4 || m.RunSimMS.Snapshot().Count != 20 {
		t.Fatalf("metric set = %d runs, %d cells, %d durations; want 20, 4, 20",
			m.Runs.Load(), m.Cells.Load(), m.RunSimMS.Snapshot().Count)
	}

	now = now.Add(time.Second)
	r.ExperimentDone("t")
	now = now.Add(3 * time.Second)
	r.ExperimentDone("u")
	// Both experiment gaps are 3s, so the EWMA is exactly 3s and the two
	// remaining experiments predict 6s.
	rec = last()
	if rec.ETASeconds < 5.99 || rec.ETASeconds > 6.01 {
		t.Fatalf("eta = %v, want 6s (constant 3s per experiment, 2 left)", rec.ETASeconds)
	}
	if rec.ExperimentsDone != 2 || rec.ExperimentsTotal != 4 {
		t.Fatalf("experiments = %d/%d, want 2/4", rec.ExperimentsDone, rec.ExperimentsTotal)
	}

	r.Close()
	if !strings.Contains(human.String(), "runs/s") {
		t.Fatalf("human progress line missing rate: %q", human.String())
	}
	if !strings.HasSuffix(human.String(), "\n") {
		t.Fatal("Close did not terminate the stderr line with a newline")
	}
	if _, err := ValidateStream(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("reporter stream invalid: %v", err)
	}
}

func TestFlightDumpWritesArtifactsAndStreams(t *testing.T) {
	dir := t.TempDir()
	fl, err := NewFlight(filepath.Join(dir, "dumps"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Events() != DefaultFlightEvents {
		t.Fatalf("Events = %d, want default %d", fl.Events(), DefaultFlightEvents)
	}

	var buf bytes.Buffer
	st := NewStream(&buf)
	paths, err := fl.Dump(st, DumpSource{
		Label:   "Apache/HTTP 1.1/PPP", // slashes and spaces must sanitize
		Reason:  "watchdog",
		Events:  7,
		Dropped: 3,
		Perfetto: func(w *os.File) error {
			_, err := w.WriteString(`{"traceEvents":[]}`)
			return err
		},
		Pcap: func(w *os.File) error {
			_, err := w.Write([]byte{0xd4, 0xc3, 0xb2, 0xa1})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2 artifacts", paths)
	}
	for _, p := range paths {
		base := filepath.Base(p)
		if strings.ContainsAny(base, "/ ") {
			t.Fatalf("unsanitized dump name %q", base)
		}
		if !strings.Contains(base, "watchdog") {
			t.Fatalf("dump name %q missing trigger reason", base)
		}
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("artifact missing: %v", err)
		}
	}
	counts, err := ValidateStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if counts[RecordFlight] != 1 {
		t.Fatalf("flight records on stream = %d, want 1", counts[RecordFlight])
	}
	if !strings.Contains(buf.String(), `"dropped":3`) {
		t.Fatalf("flight record missing overflow accounting:\n%s", buf.String())
	}

	// A second dump must not overwrite the first.
	paths2, err := fl.Dump(nil, DumpSource{Label: "x", Reason: "error",
		Perfetto: func(w *os.File) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths2) != 1 || paths2[0] == paths[0] {
		t.Fatalf("second dump reused the first dump's path: %v vs %v", paths2, paths)
	}
}
