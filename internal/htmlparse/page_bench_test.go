package htmlparse_test

import (
	"testing"

	"repro/internal/htmlparse"
	"repro/internal/webgen"
)

// BenchmarkExtractMicroscape1460 is what the robot does to the page on
// every first-time retrieval: the 42 KB Microscape HTML through a
// LinkExtractor in segment-sized pieces.
func BenchmarkExtractMicroscape1460(b *testing.B) {
	page := webgen.MicroscapeHTML(webgen.Options{})
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e htmlparse.LinkExtractor
		links := 0
		for off := 0; off < len(page); off += 1460 {
			links += len(e.Feed(page[off:min(off+1460, len(page))]))
		}
		if links == 0 {
			b.Fatal("no links extracted")
		}
	}
}
