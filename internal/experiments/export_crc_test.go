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
// leave that file alone. The population is generated on a pool of one,
// so the scenario remembered under each label — the last one run — does
// not depend on scheduling.
func TestExportBytesUnchanged(t *testing.T) {
	s, scs := recordedPopulation(t, 1)
	var got bytes.Buffer
	sum := func(name string, b *bytes.Buffer) {
		fmt.Fprintf(&got, "\t%s %d %08x", name, b.Len(), crc32.ChecksumIEEE(b.Bytes()))
		b.Reset()
	}
	var out bytes.Buffer
	for _, sc := range scs {
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
