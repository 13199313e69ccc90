package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// explainFiles is every artifact -explain -o writes.
var explainFiles = []string{"run.pcap", "run.json", "dump.txt", "client.xplot", "server.xplot", "client.seq", "server.seq", "report.txt"}

// TestExplainWritesEveryArtifact runs -explain -o on a proxied fault run
// and on a pushing mux run, and checks each artifact: report.txt is the
// report printed, the pcap reads back with the packet count announced,
// the Perfetto export is JSON, and the packet dump and xplot file are
// those of a run with only the capture armed — the other observers do
// not perturb the run.
func TestExplainWritesEveryArtifact(t *testing.T) {
	site, err := core.DefaultSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		seed uint64
	}{
		{"apache/pipelined/WAN/first/proxy:WAN/early-close", 7},
		{"apache/mux-push/PPP/first", 1},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			if err := explain(tc.spec, tc.seed, dir, nil, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			read := func(name string) []byte {
				t.Helper()
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if len(b) == 0 {
					t.Errorf("%s is empty", name)
				}
				return b
			}
			for _, name := range explainFiles {
				read(name)
			}
			if !bytes.Equal(read("report.txt"), stdout.Bytes()) {
				t.Error("report.txt differs from the report printed on stdout")
			}

			var packets int
			_, notice, _ := strings.Cut(stderr.String(), "run.pcap: ")
			if _, err := fmt.Sscanf(notice, "%d packets", &packets); err != nil {
				t.Fatalf("no pcap count in %q: %v", stderr.String(), err)
			}
			pf, err := trace.ParsePcap(read("run.pcap"))
			if err != nil {
				t.Fatal(err)
			}
			if len(pf.Packets) != packets {
				t.Errorf("run.pcap holds %d records, the notice says %d", len(pf.Packets), packets)
			}
			if !json.Valid(read("run.json")) {
				t.Error("run.json is not valid JSON")
			}

			sc, err := core.ParseScenario(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sc.Seed = tc.seed
			plain, err := core.Run(sc, site, core.WithCapture())
			if err != nil {
				t.Fatal(err)
			}
			var dump, xplot bytes.Buffer
			if err := plain.Capture.Dump(&dump); err != nil {
				t.Fatal(err)
			}
			if err := plain.Capture.WriteXplot(&xplot, "server", sc.String()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(read("dump.txt"), dump.Bytes()) {
				t.Error("dump.txt differs from the dump of a capture-only run")
			}
			if !bytes.Equal(read("server.xplot"), xplot.Bytes()) {
				t.Error("server.xplot differs from the xplot file of a capture-only run")
			}
		})
	}
}

// TestExplainRejects covers the two ways to ask -explain for nothing it
// can run: a mux client behind the HTTP/1.x proxy, and -o on its own.
func TestExplainRejects(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := explain("apache/mux/PPP/first/proxy:WAN", 1, t.TempDir(), nil, &stdout, &stderr); !errors.Is(err, core.ErrMuxTopology) {
		t.Errorf("mux behind a proxy: err = %v, want ErrMuxTopology", err)
	}
	dir := filepath.Join(t.TempDir(), "out")
	if code := realMain([]string{"-o", dir}); code != 1 {
		t.Errorf("-o without -explain exited %d, want 1", code)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-o without -explain created %s", dir)
	}
}

// TestListExamplesParse parses every example spec -list prints, so the
// grammar it shows stays the one ParseScenario accepts.
func TestListExamplesParse(t *testing.T) {
	var buf bytes.Buffer
	printList(&buf)
	examples := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		_, ex, ok := strings.Cut(line, "e.g. ")
		if !ok {
			continue
		}
		spec, _, _ := strings.Cut(ex, " ")
		if _, err := core.ParseScenario(spec); err != nil {
			t.Errorf("-list example %q: %v", spec, err)
		}
		examples++
	}
	if examples < 4 {
		t.Errorf("-list prints %d example specs, want one per optional part (4)", examples)
	}
}
