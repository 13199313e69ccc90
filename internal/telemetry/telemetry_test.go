package telemetry

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readIndex returns the lines of dir's index, each split into its
// tab-separated fields.
func readIndex(t *testing.T, dir string) [][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		lines = append(lines, strings.Split(line, "\t"))
	}
	return lines
}

func TestFlightDumpWritesArtifactsAndIndex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dumps")
	fl, err := NewFlight(dir)
	if err != nil {
		t.Fatal(err)
	}

	err = fl.Dump(DumpSource{
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
	lines := readIndex(t, dir)
	if len(lines) != 1 {
		t.Fatalf("index has %d lines, want 1: %q", len(lines), lines)
	}
	want := []string{"001", "watchdog", "Apache/HTTP 1.1/PPP", "kept 7", "dropped 3"}
	if got := lines[0]; len(got) != 6 || strings.Join(got[:5], "|") != strings.Join(want, "|") {
		t.Fatalf("index line = %q, want %q then the artifacts", got, want)
	}
	artifacts := strings.Fields(lines[0][5])
	if len(artifacts) != 2 {
		t.Fatalf("index names %v, want 2 artifacts", artifacts)
	}
	for _, name := range artifacts {
		if strings.ContainsAny(name, "/ ") || !strings.Contains(name, "watchdog") {
			t.Fatalf("dump name %q is unsanitized or lacks the trigger reason", name)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("artifact missing: %v", err)
		}
	}

	// A second dump must not overwrite the first, and a failed write is
	// reported on its index line as well as to the caller.
	broken := errors.New("disk on fire")
	err = fl.Dump(DumpSource{Label: "x", Reason: "error",
		Perfetto: func(w *os.File) error { return nil },
		Pcap:     func(w *os.File) error { return broken }})
	if !errors.Is(err, broken) {
		t.Fatalf("Dump error = %v, want the exporter's", err)
	}
	lines = readIndex(t, dir)
	if len(lines) != 2 || len(lines[1]) != 7 {
		t.Fatalf("index after a failed dump = %q, want a second line with an error field", lines)
	}
	if got := lines[1]; got[0] != "002" || got[1] != "error" || got[5] == lines[0][5] ||
		strings.Contains(got[5], ".pcap") || !strings.Contains(got[6], "disk on fire") {
		t.Fatalf("second index line = %q: want dump 002, its own perfetto file only, and the pcap error", got)
	}
	if pcaps, _ := filepath.Glob(filepath.Join(dir, "flight-002-*.pcap")); len(pcaps) != 0 {
		t.Fatalf("failed pcap left behind: %v", pcaps)
	}
}
