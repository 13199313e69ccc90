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
	s := session(t, 1)
	var got bytes.Buffer
	sum := func(name string, b *bytes.Buffer) {
		fmt.Fprintf(&got, "\t%s %d %08x", name, b.Len(), crc32.ChecksumIEEE(b.Bytes()))
		b.Reset()
	}
	var out bytes.Buffer
	for _, sc := range Scenarios() {
		res, err := core.Run(sc, s.Site, core.WithCapture(), core.WithTimeline(), core.WithBlame())
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		got.WriteString(sc.String())
		if err := res.Timeline.WritePerfettoPath(&out, res.Blame.PerfettoPath()); err != nil {
			t.Fatalf("%s: perfetto: %v", sc, err)
		}
		sum("perfetto", &out)
		if err := res.Capture.WritePcap(&out); err != nil {
			t.Fatalf("%s: pcap: %v", sc, err)
		}
		sum("pcap", &out)
		report.WriteWaterfall(&out, res.Timeline, res.Blame)
		sum("waterfall", &out)
		got.WriteByte('\n')
	}
	checkGolden(t, "export-crc", filepath.Join("testdata", "export_crc.txt"), got.Bytes())
}
