package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// updateGolden rewrites the goldens instead of checking them:
// UPDATE_GOLDEN=1 go test ./... regenerates every golden in the module.
var updateGolden = os.Getenv("UPDATE_GOLDEN") == "1"

// TestLegacyTablesUnchanged pins the rendered bytes of representative
// pre-existing experiments against goldens captured before the fault
// layer existed: with no fault profile configured, the fault-injection
// wiring must be a strict no-op — no extra RNG draws, no timers, no
// changed seed consumption.
func TestLegacyTablesUnchanged(t *testing.T) {
	for _, name := range []string{"3", "reset"} {
		s := session(t, 4)
		got := render(t, s, name)
		checkGolden(t, name, filepath.Join("testdata", "legacy_"+name+"_golden.txt"), got)
	}
}

// TestAllTablesGolden pins the whole default httpperf output — every
// exp.Names() entry at the paper's five runs per cell, a blank line
// after each, as run() prints it — byte-for-byte, on a serial and on a
// wide pool. A change to how experiments are declared, generated or
// rendered must leave testdata/all_golden.txt alone.
func TestAllTablesGolden(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		s := session(t, parallel)
		s.Runs, s.Seeds = core.DefaultRuns, 1
		var got bytes.Buffer
		for _, name := range exp.Names() {
			got.Write(render(t, s, name))
			got.WriteByte('\n')
		}
		checkGolden(t, fmt.Sprintf("all/parallel=%d", parallel), filepath.Join("testdata", "all_golden.txt"), got.Bytes())
	}
}

// TestVarianceGolden pins the rendered seed-variance table — the
// distribution/±CI renderer driven by real runs — byte-for-byte. The
// table must also be independent of worker-pool width.
func TestVarianceGolden(t *testing.T) {
	s := session(t, 4)
	s.Seeds = 3
	got := render(t, s, "variance")
	checkGolden(t, "variance", filepath.Join("testdata", "variance_golden.txt"), got)
}

// TestMuxFaultsGolden pins the framed-protocol fault-recovery table:
// every faulted mux cell must finish the page deterministically, so the
// averaged recovery counters are byte-stable across regenerations.
func TestMuxFaultsGolden(t *testing.T) {
	s := session(t, 4)
	got := render(t, s, "mux-faults")
	checkGolden(t, "mux-faults", filepath.Join("testdata", "muxfaults_golden.txt"), got)
}

func checkGolden(t *testing.T, name, path string, got []byte) {
	t.Helper()
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with UPDATE_GOLDEN=1 to regenerate)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: rendered table changed:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
