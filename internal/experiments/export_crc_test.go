package experiments

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// TestExportBytesUnchanged is the exporters' byte-identity contract:
// for every scenario any registered experiment executes, the Perfetto
// timeline (with the critical-path overlay), the pcap and the blame
// waterfall are rendered and their length and CRC-32 compared with
// testdata/export_crc.txt. A change that makes an exporter cheaper must
// leave that file alone — and so must a change to how experiments are
// declared: the file lists what a one-run pass over every experiment
// executed when scenarios were still recorded as they ran, so it is also
// the proof that Scenarios enumerates that population.
func TestExportBytesUnchanged(t *testing.T) {
	var got bytes.Buffer
	for _, f := range replayed(t).report(t, "export-crc") {
		got.WriteString(f.note)
		got.WriteByte('\n')
	}
	checkGolden(t, "export-crc", filepath.Join("testdata", "export_crc.txt"), got.Bytes())
}

// checkExport renders the observed run's three artifacts and notes the
// scenario's export_crc.txt line: its name, then each artifact's length
// and CRC-32, summed as the exporter writes rather than kept.
func checkExport(observed, _ *core.RunResult, f *finding) {
	line := []byte(observed.Scenario.String())
	var out crcWriter
	sum := func(name string) {
		line = fmt.Appendf(line, "\t%s %d %08x", name, out.n, out.crc)
		out = crcWriter{}
	}
	if err := observed.Timeline.WritePerfettoPath(&out, observed.Blame.PerfettoPath()); err != nil {
		f.errorf("perfetto: %v", err)
		return
	}
	sum("perfetto")
	if err := observed.Capture.WritePcap(&out); err != nil {
		f.errorf("pcap: %v", err)
		return
	}
	sum("pcap")
	report.WriteWaterfall(&out, observed.Timeline, observed.Blame)
	sum("waterfall")
	f.note = string(line)
}

// crcWriter is an io.Writer that keeps only the length and CRC-32 of
// what was written to it.
type crcWriter struct {
	n   int
	crc uint32
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	return len(p), nil
}
