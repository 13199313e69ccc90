package lzw

import (
	"bytes"
	stdlzw "compress/lzw"
	"io"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

var corpora = map[string][]byte{
	"empty":  {},
	"single": []byte{5},
	"short":  []byte("TOBEORNOTTOBEORTOBEORNOT"),
	"runs":   bytes.Repeat([]byte{1}, 5000),
	"text":   []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 300)),
	"random": func() []byte {
		r := rand.New(rand.NewSource(11))
		b := make([]byte, 6000)
		r.Read(b)
		return b
	}(),
}

// decompress decodes GIF-variant LZW with the standard library's
// compress/lzw, the package's decoder oracle.
func decompress(data []byte, litWidth int) ([]byte, error) {
	r := stdlzw.NewReader(bytes.NewReader(data), stdlzw.LSB, litWidth)
	defer r.Close()
	return io.ReadAll(r)
}

// TestRoundTripSelf round-trips every corpus at each literal width its
// symbols fit, through the standard library's decoder.
func TestRoundTripSelf(t *testing.T) {
	for name, data := range corpora {
		for _, lw := range []int{2, 4, 8} {
			if lw < 8 {
				// Narrow literal widths require narrow symbols.
				ok := true
				for _, b := range data {
					if int(b) >= 1<<lw {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
			}
			comp := Compress(data, lw)
			got, err := decompress(comp, lw)
			if err != nil {
				t.Fatalf("%s/lw%d: %v", name, lw, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/lw%d: round trip mismatch", name, lw)
			}
		}
	}
}

func TestOurOutputReadableByStdlib(t *testing.T) {
	for name, data := range corpora {
		comp := Compress(data, 8)
		r := stdlzw.NewReader(bytes.NewReader(comp), stdlzw.LSB, 8)
		got, err := io.ReadAll(r)
		if err != nil && err != io.ErrUnexpectedEOF {
			t.Fatalf("%s: stdlib reader: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: stdlib decoded %d bytes, want %d", name, len(got), len(data))
		}
	}
}

func TestCompressesRepetitiveText(t *testing.T) {
	data := corpora["text"]
	comp := Compress(data, 8)
	if len(comp) >= len(data)/2 {
		t.Fatalf("LZW on repetitive text: %d -> %d bytes, want < half", len(data), len(comp))
	}
}

func TestDictionaryOverflowResets(t *testing.T) {
	// Enough distinct material to fill the 4096-entry table and force a
	// CLEAR + rebuild cycle.
	r := rand.New(rand.NewSource(2))
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(r.Intn(64))
	}
	comp := Compress(data, 8)
	got, err := decompress(comp, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip across dictionary reset failed")
	}
}

// CompressedLen returns len(Compress(data, litWidth)) and true when that
// length is below limit, and (limit, false) otherwise. It is a Counter
// fed data in one piece.
func CompressedLen(data []byte, litWidth, limit int) (int, bool) {
	c := NewCounter(litWidth, limit)
	c.Write(data)
	return c.Len()
}

// checkCompressedLen holds CompressedLen at limit to its contract, given
// want, the length Compress produces.
func checkCompressedLen(t *testing.T, data []byte, lw, limit, want int) {
	t.Helper()
	n, ok := CompressedLen(data, lw, limit)
	if wantOK := want < limit; ok != wantOK || ok && n != want || !ok && n != limit {
		t.Errorf("lw%d, %d bytes in: CompressedLen(limit %d) = (%d, %v); Compress gives %d bytes",
			lw, len(data), limit, n, ok, want)
	}
}

func TestCompressedLenMatchesCompress(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for lw := 2; lw <= 8; lw++ {
		symbols := 1 << lw
		random := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(r.Intn(symbols))
			}
			return b
		}
		alternating := make([]byte, 3000)
		for i := range alternating {
			alternating[i] = byte(i % 2)
		}
		inputs := map[string][]byte{
			"empty":       {},
			"single":      {1},
			"flat":        bytes.Repeat([]byte{1}, 5000),
			"alternating": alternating,
			"random":      random(2000),
			// Enough material to fill the 4096-code table and emit CLEAR
			// several times over.
			"clearing": random(60_000),
		}
		for _, data := range inputs {
			want := len(Compress(data, lw))
			for _, limit := range []int{-1, 0, 1, want / 2, want - 1, want, want + 1, 2 * want, math.MaxInt} {
				checkCompressedLen(t, data, lw, limit, want)
			}
		}
	}
}

// FuzzCompressedLen holds the counting coder to the writing one on
// arbitrary input, literal width and limit.
func FuzzCompressedLen(f *testing.F) {
	f.Add([]byte("TOBEORNOTTOBEORTOBEORNOT"), 8, 10)
	f.Add([]byte{}, 2, 1)
	f.Add(bytes.Repeat([]byte{3, 1}, 3000), 2, 400)
	f.Fuzz(func(t *testing.T, data []byte, litWidth, limit int) {
		lw := 2 + (litWidth%7+7)%7
		for i := range data {
			data[i] &= byte(1<<lw - 1)
		}
		checkCompressedLen(t, data, lw, limit, len(Compress(data, lw)))
	})
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		comp := Compress(data, 8)
		got, err := decompress(comp, 8)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestModemCompressorTextRatio(t *testing.T) {
	m := NewModemCompressor()
	data := corpora["text"]
	bits := 0
	// Feed as 512-byte packets like a serial stream.
	for off := 0; off < len(data); off += 512 {
		end := off + 512
		if end > len(data) {
			end = len(data)
		}
		bits += m.CompressedBits(data[off:end])
	}
	ratio := float64(bits) / float64(8*len(data))
	if ratio > 0.75 {
		t.Fatalf("modem compression ratio %.2f on text, want < 0.75", ratio)
	}
	if ratio < 0.05 {
		t.Fatalf("modem compression ratio %.2f suspiciously good", ratio)
	}
}

func TestModemWeakerThanDeflateShape(t *testing.T) {
	// The paper's point: deflate removes ~2/3 of HTML bytes; modem LZW
	// removes less. We just assert the modem coder does not reach
	// deflate-class ratios on mixed HTML.
	html := []byte(strings.Repeat(
		`<TD ALIGN=left VALIGN=top><FONT SIZE=2 FACE="arial"><A HREF="/x.html">text</A></FONT></TD>`, 150))
	m := NewModemCompressor()
	bits := m.CompressedBits(html)
	ratio := float64(bits) / float64(8*len(html))
	if ratio < 0.10 {
		t.Fatalf("modem ratio %.3f too strong for the comparison to hold", ratio)
	}
}

func TestModemTransparentFallback(t *testing.T) {
	m := NewModemCompressor()
	r := rand.New(rand.NewSource(5))
	pkt := make([]byte, 1500)
	r.Read(pkt)
	bits := m.CompressedBits(pkt)
	if bits > 8*len(pkt)+8 {
		t.Fatalf("random packet cost %d bits, beyond transparent-mode cap %d", bits, 8*len(pkt)+8)
	}
}

func TestModemStatePersistsAcrossPackets(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 400)
	one := NewModemCompressor()
	single := one.CompressedBits(data)

	split := NewModemCompressor()
	total := 0
	for off := 0; off < len(data); off += 100 {
		end := off + 100
		if end > len(data) {
			end = len(data)
		}
		total += split.CompressedBits(data[off:end])
	}
	// Packetized encoding costs a little more (pending-prefix flushes)
	// but must stay in the same ballpark because the dictionary persists.
	if total > 2*single {
		t.Fatalf("packetized cost %d bits vs %d single-shot: dictionary not persisting", total, single)
	}
}

func TestModemReset(t *testing.T) {
	m := NewModemCompressor()
	data := bytes.Repeat([]byte("xyz"), 500)
	first := m.CompressedBits(data)
	trained := m.CompressedBits(data)
	if trained >= first {
		t.Fatalf("trained pass (%d bits) not better than cold pass (%d bits)", trained, first)
	}
	m.Reset()
	cold := m.CompressedBits(data)
	if cold != first {
		t.Fatalf("after Reset cost %d bits, want %d (cold)", cold, first)
	}
}

func TestModemDictSizeFloor(t *testing.T) {
	m := NewModemCompressorSize(10)
	if m.dictSize != 512 {
		t.Fatalf("dict size floor not applied: %d", m.dictSize)
	}
}

// With dictionary rows 1<<litWidth wide, a byte beyond the literal width
// would alias another prefix's entry, so both coders refuse it, first
// byte or any later one, as compress/lzw's writer does.
func TestSymbolBeyondLiteralWidthPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for lw := 2; lw < 8; lw++ {
		bad := byte(1 << lw)
		for _, data := range [][]byte{{bad}, {0, bad}, append(bytes.Repeat([]byte{1, 0}, 3000), bad)} {
			mustPanic("Compress", func() { Compress(data, lw) })
			mustPanic("CompressedLen", func() { CompressedLen(data, lw, math.MaxInt) })
		}
	}
}

// cycleCoders starts n coders of literal width lw at once, closes them
// all and returns the tables they coded with.
func cycleCoders(n, lw int) map[*encTable]bool {
	cs := make([]coder, n)
	tables := make(map[*encTable]bool)
	for i := range cs {
		cs[i].start(lw, bitWriter{budget: math.MaxInt})
		tables[cs[i].tbl] = true
	}
	for i := range cs {
		cs[i].close()
	}
	return tables
}

// Released tables outlive garbage collections: once GOMAXPROCS coders of
// a width have closed, the next GOMAXPROCS coders of that width get the
// same tables back, whatever collections ran in between, instead of
// making and zeroing new ones.
func TestReleasedTablesSurviveGC(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	for lw := 2; lw <= 8; lw++ {
		before := cycleCoders(n, lw)
		runtime.GC()
		runtime.GC()
		if after := cycleCoders(n, lw); !maps.Equal(before, after) {
			t.Errorf("lw%d: %d of %d tables were made again after two collections", lw, n-countShared(before, after), n)
		}
	}
}

// A width keeps at most GOMAXPROCS tables: of more coders closed at once,
// the rest are dropped, and the next as many coders make that many anew.
func TestFreeListKeepsAtMostGOMAXPROCS(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	for lw := 2; lw <= 8; lw++ {
		before := cycleCoders(n+2, lw)
		if kept := countShared(before, cycleCoders(n+2, lw)); kept != n {
			t.Errorf("lw%d: %d tables kept of %d released, want GOMAXPROCS = %d", lw, kept, n+2, n)
		}
	}
}

func countShared(a, b map[*encTable]bool) int {
	n := 0
	for t := range b {
		if a[t] {
			n++
		}
	}
	return n
}
