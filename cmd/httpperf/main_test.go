package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// updateGolden rewrites the goldens instead of checking them:
// UPDATE_GOLDEN=1 go test ./... regenerates every golden in the module.
var updateGolden = os.Getenv("UPDATE_GOLDEN") == "1"

// goldenTable renders one registered experiment exactly the way the CI
// smoke jobs invoke it (`httpperf -table NAME -runs 1 -seeds 1
// -parallel 4`) and diffs the bytes against the committed golden.
func goldenTable(t *testing.T, name, path string) {
	t.Helper()
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	s := &exp.Session{Runs: 1, Seeds: 1, Parallel: 4, Site: site}
	e, ok := exp.Lookup(name)
	if !ok {
		t.Fatalf("%s experiment not registered", name)
	}
	data, err := e.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Render(&buf, s, data); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n') // run() prints a blank line after each table

	if updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s table drifted from committed golden:\n--- got ---\n%s\n--- want ---\n%s", name, buf.Bytes(), want)
	}
}

// TestFaultMatrixGolden pins the exact bytes the CI fault-matrix smoke
// job diffs: `httpperf -table faults -runs 1 -seeds 1 -parallel 4`. If the
// fault table legitimately changes, regenerate with `UPDATE_GOLDEN=1 go
// test ./cmd/httpperf -run TestFaultMatrixGolden`.
func TestFaultMatrixGolden(t *testing.T) {
	goldenTable(t, "faults", "testdata/faults_golden.txt")
}

// TestMuxGolden pins the exact bytes the CI mux smoke job diffs:
// `httpperf -table mux -runs 1 -seeds 1 -parallel 4`. Regenerate with
// `UPDATE_GOLDEN=1 go test ./cmd/httpperf -run TestMuxGolden` after
// legitimate changes to the multiplexed-protocol experiment.
func TestMuxGolden(t *testing.T) {
	goldenTable(t, "mux", "testdata/mux_golden.txt")
}

// TestMuxFaultsGolden pins the exact bytes the CI fault-matrix smoke
// job diffs for the framed-protocol recovery sweep: `httpperf -table
// mux-faults -runs 1 -seeds 1 -parallel 4`. Regenerate with
// `UPDATE_GOLDEN=1 go test ./cmd/httpperf -run TestMuxFaultsGolden`.
func TestMuxFaultsGolden(t *testing.T) {
	goldenTable(t, "mux-faults", "testdata/muxfaults_golden.txt")
}

// TestBlameGolden pins the exact bytes the CI delay-attribution smoke job
// and the benchmark's table_all warm-up diff: `httpperf -table blame
// -runs 1 -seeds 1 -parallel 4`.
func TestBlameGolden(t *testing.T) {
	goldenTable(t, "blame", "testdata/blame_golden.txt")
}

// TestSlowestRunRepeatsItsRecord sweeps a table at two runs a cell, whose
// repetitions are jittered, and re-runs the slowest record the way
// -profile-slowest does: the re-run must be the run the sweep measured.
func TestSlowestRunRepeatsItsRecord(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	s := &exp.Session{Runs: 2, Seeds: 1, Parallel: 2, Site: site, Collector: exp.NewCollector()}
	if _, err := s.Generate("nagle"); err != nil {
		t.Fatal(err)
	}
	sc, rec, err := slowestRun(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(sc, site)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Elapsed.Seconds(); got != rec.ElapsedSeconds {
		t.Errorf("re-run of %s seed %d took %v s, the sweep measured %v s", rec.Scenario, rec.Seed, got, rec.ElapsedSeconds)
	}
}
