package flatez_test

import (
	"errors"
	"testing"

	"repro/internal/flatez"
	"repro/internal/webgen"
)

// pages are the documents the simulated server deflates: the Microscape
// page in each tag case and the CSS-ified site's page.
func pages(t *testing.T) map[string][]byte {
	t.Helper()
	pages := map[string][]byte{}
	for _, c := range []webgen.TagCase{webgen.TagsLower, webgen.TagsMixed, webgen.TagsUpper} {
		pages[c.String()] = webgen.MicroscapeHTML(webgen.Options{TagCase: c})
	}
	site, err := webgen.Microscape(webgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cssified, err := site.CSSified(webgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pages["cssified"] = cssified.HTML.Body
	return pages
}

func TestInflatePageMatchesOracle(t *testing.T) {
	for name, page := range pages(t) {
		comp := flatez.Compress(page)
		if err := flatez.MatchOracle(comp, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// Every truncation of the page's stream. The reference reads its
	// input in order and must reach the last byte, which ends the final
	// block, to accept the stream, so it rejects every proper prefix: the
	// decoder, which pads past the end of its input, must as well. The
	// reference itself runs on every 64th prefix and the longest.
	comp := flatez.Compress(webgen.MicroscapeHTML(webgen.Options{}))
	for n := range comp {
		if n%64 == 0 || n == len(comp)-1 {
			if err := flatez.MatchOracle(comp[:n], nil); err != nil {
				t.Fatalf("truncated to %d bytes: %v", n, err)
			}
		} else if _, err := flatez.Decompress(comp[:n]); !errors.Is(err, flatez.ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: error %v, want ErrCorrupt", n, err)
		}
	}
	// One flipped bit at a time, at a stride that reaches every bit
	// position of a byte.
	flipped := make([]byte, len(comp))
	for bit := 0; bit < 8*len(comp); bit += 127 {
		copy(flipped, comp)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := flatez.MatchOracle(flipped, nil); err != nil {
			t.Fatalf("bit %d flipped: %v", bit, err)
		}
	}
}

// Inflating the page allocates its output and at most the decoder value.
func TestDecompressPageAllocs(t *testing.T) {
	comp := flatez.Compress(webgen.MicroscapeHTML(webgen.Options{}))
	if n := testing.AllocsPerRun(20, func() {
		if _, err := flatez.Decompress(comp); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("inflating the page: %v allocations, want ≤ 2", n)
	}
}

// BenchmarkDecompressPage is what the robot does with a deflate-coded
// page: inflate the 42 KB Microscape HTML.
func BenchmarkDecompressPage(b *testing.B) {
	page := webgen.MicroscapeHTML(webgen.Options{})
	comp := flatez.Compress(page)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flatez.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}
