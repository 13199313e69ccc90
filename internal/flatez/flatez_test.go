package flatez

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"hash/adler32"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// stdInflate decompresses with the standard library to cross-validate our
// encoder's bitstream.
func stdInflate(t *testing.T, data []byte) []byte {
	t.Helper()
	r := flate.NewReader(bytes.NewReader(data))
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("standard inflate rejected our stream: %v", err)
	}
	return out
}

// stdDeflate compresses with the standard library to cross-validate our
// decoder.
func stdDeflate(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var testCorpora = map[string][]byte{
	"empty":     {},
	"single":    []byte("x"),
	"short":     []byte("hello world"),
	"runs":      bytes.Repeat([]byte("a"), 10000),
	"alternate": bytes.Repeat([]byte("ab"), 5000),
	"html": []byte(strings.Repeat(
		`<table border=0 cellpadding=0><tr><td><a href="/products/index.html">`+
			`<img src="/images/button.gif" width=90 height=30 border=0 alt="products"></a></td></tr></table>`, 200)),
	"incompressible": func() []byte {
		r := rand.New(rand.NewSource(7))
		b := make([]byte, 8192)
		r.Read(b)
		return b
	}(),
}

func TestRoundTripSelf(t *testing.T) {
	for name, data := range testCorpora {
		for _, level := range []int{1, 3, 6, 9} {
			comp := CompressLevel(data, level)
			got, err := Decompress(comp)
			if err != nil {
				t.Fatalf("%s/L%d: decompress: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/L%d: round trip mismatch (%d vs %d bytes)", name, level, len(got), len(data))
			}
		}
	}
}

func TestOurStreamReadableByStdlib(t *testing.T) {
	for name, data := range testCorpora {
		for _, level := range []int{1, 6, 9} {
			comp := CompressLevel(data, level)
			got := stdInflate(t, comp)
			if len(got) == 0 && len(data) == 0 {
				continue
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/L%d: stdlib inflate mismatch", name, level)
			}
		}
	}
}

func TestStdlibStreamReadableByUs(t *testing.T) {
	for name, data := range testCorpora {
		for _, level := range []int{1, 6, 9} {
			comp := stdDeflate(t, data, level)
			got, err := Decompress(comp)
			if err != nil {
				t.Fatalf("%s/L%d: our inflate rejected stdlib stream: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/L%d: mismatch inflating stdlib stream", name, level)
			}
		}
	}
}

func TestCompressionRatioOnHTML(t *testing.T) {
	// The paper: "the Microscape HTML page compressed more than a factor
	// of three" — markup-heavy HTML should get well below 0.4.
	data := testCorpora["html"]
	comp := Compress(data)
	if r := Ratio(data, comp); r > 0.2 {
		t.Fatalf("repetitive HTML ratio = %.3f, want < 0.2", r)
	}
}

func TestIncompressibleDataNotInflated(t *testing.T) {
	data := testCorpora["incompressible"]
	comp := Compress(data)
	if len(comp) > len(data)+64 {
		t.Fatalf("incompressible data grew from %d to %d bytes", len(data), len(comp))
	}
}

func TestHigherLevelCompressesBetter(t *testing.T) {
	data := testCorpora["html"]
	l1 := len(CompressLevel(data, 1))
	l9 := len(CompressLevel(data, 9))
	if l9 > l1 {
		t.Fatalf("level 9 (%d bytes) worse than level 1 (%d bytes)", l9, l1)
	}
}

func TestPresetDictionary(t *testing.T) {
	dict := []byte("GET /images/ HTTP/1.1\r\nHost: microscape\r\nAccept: */*\r\n")
	data := []byte("GET /images/logo.gif HTTP/1.1\r\nHost: microscape\r\nAccept: */*\r\n\r\n")
	plain := Compress(data)
	withDict := CompressDict(data, dict, 6)
	if len(withDict) >= len(plain) {
		t.Fatalf("dictionary did not help: %d vs %d bytes", len(withDict), len(plain))
	}
	got, err := DecompressDict(withDict, dict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("dictionary round trip mismatch")
	}
	// Wrong dictionary must not silently succeed.
	if wrong, err := DecompressDict(withDict, []byte("completely different dictionary text here")); err == nil && bytes.Equal(wrong, data) {
		t.Fatal("wrong dictionary reproduced the input")
	}
}

func TestStoredBlockRoundTrip(t *testing.T) {
	// Random data at 128KB forces stored blocks and multiple-block logic.
	r := rand.New(rand.NewSource(3))
	data := make([]byte, 130_000)
	r.Read(data)
	comp := Compress(data)
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stored round trip mismatch")
	}
	got2 := stdInflate(t, comp)
	if !bytes.Equal(got2, data) {
		t.Fatal("stdlib rejected our stored blocks")
	}
}

func TestCorruptStreams(t *testing.T) {
	cases := map[string][]byte{
		"empty-input":   {},
		"reserved-type": {0x07}, // BFINAL=1 BTYPE=11
		"truncated":     Compress(testCorpora["html"])[:10],
		"bad-stored-len": {
			0x01,       // final, stored
			0x05, 0x00, // LEN=5
			0x05, 0x00, // NLEN wrong
			'a', 'b', 'c', 'd', 'e',
		},
	}
	for name, data := range cases {
		if _, err := Decompress(data); err == nil {
			t.Errorf("%s: corrupt stream accepted", name)
		}
	}
}

func TestAdler32MatchesStdlib(t *testing.T) {
	for name, data := range testCorpora {
		if got, want := Adler32(1, data), adler32.Checksum(data); got != want {
			t.Errorf("%s: adler32 = %08x, want %08x", name, got, want)
		}
	}
	// Incremental equals one-shot.
	data := testCorpora["html"]
	a := Adler32(1, data[:100])
	a = Adler32(a, data[100:])
	if a != adler32.Checksum(data) {
		t.Error("incremental adler32 mismatch")
	}
}

// TestZlibContainerRoundTrip checks the preset-dictionary container (the
// FDICT flag and DICTID that MNG frames carry) against compress/zlib.
func TestZlibContainerRoundTrip(t *testing.T) {
	data := testCorpora["html"]
	dict := data[len(data)/2:]
	r, err := zlib.NewReaderDict(bytes.NewReader(ZlibCompressDict(data, dict, 6)), dict)
	if err != nil {
		t.Fatalf("stdlib zlib rejected header: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("stdlib zlib read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("zlib round trip mismatch")
	}
}

func TestZlibReadableByStdlib(t *testing.T) {
	data := testCorpora["html"]
	comp := ZlibCompress(data, 6)
	r, err := zlib.NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatalf("stdlib zlib rejected header: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("stdlib zlib read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stdlib zlib mismatch")
	}
}

func TestLengthCodeBoundaries(t *testing.T) {
	cases := map[int]int{3: 0, 4: 1, 10: 7, 11: 8, 12: 8, 13: 9, 257: 27, 258: 28}
	for length, want := range cases {
		if got := lengthCode(length); got != want {
			t.Errorf("lengthCode(%d) = %d, want %d", length, got, want)
		}
	}
}

func TestDistCodeBoundaries(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 3, 5: 4, 6: 4, 7: 5, 24577: 29, 32768: 29}
	for dist, want := range cases {
		if got := distCode(dist); got != want {
			t.Errorf("distCode(%d) = %d, want %d", dist, got, want)
		}
	}
}

func TestReverseBits(t *testing.T) {
	if got := reverseBits(0b1, 3); got != 0b100 {
		t.Fatalf("reverseBits(001,3) = %03b", got)
	}
	if got := reverseBits(0b1011, 4); got != 0b1101 {
		t.Fatalf("reverseBits(1011,4) = %04b", got)
	}
}

func TestBuildLengthsProperties(t *testing.T) {
	// Kraft sum exactly 1 for >1 symbols; frequent symbols not longer
	// than rare ones.
	freq := []int64{100, 50, 20, 10, 5, 1, 0, 1}
	lens := buildLengths(freq, 15)
	var kraft float64
	for i, l := range lens {
		if freq[i] == 0 && l != 0 {
			t.Fatal("zero-frequency symbol got a code")
		}
		if l > 0 {
			kraft += 1 / float64(int(1)<<l)
		}
	}
	if kraft != 1.0 {
		t.Fatalf("Kraft sum = %v, want exactly 1", kraft)
	}
	if lens[0] > lens[5] {
		t.Fatalf("most frequent symbol got longer code (%d) than rarest (%d)", lens[0], lens[5])
	}
}

func TestBuildLengthsLimitRespected(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; the limiter must cap
	// at maxBits while keeping a complete code.
	freq := make([]int64, 40)
	a, b := int64(1), int64(1)
	for i := range freq {
		freq[i] = a
		a, b = b, a+b
	}
	lens := buildLengths(freq, 7)
	var kraft float64
	for _, l := range lens {
		if l > 7 {
			t.Fatalf("length %d exceeds limit 7", l)
		}
		if l > 0 {
			kraft += 1 / float64(int(1)<<l)
		}
	}
	if kraft > 1.0 {
		t.Fatalf("over-subscribed code: Kraft %v", kraft)
	}
	var table huffTable
	if err := table.build(lens); err != nil {
		t.Fatalf("limited lengths rejected by decoder: %v", err)
	}
}

func TestBuildLengthsDegenerate(t *testing.T) {
	if lens := buildLengths([]int64{0, 0, 0}, 15); lens[0]+lens[1]+lens[2] != 0 {
		t.Fatal("empty alphabet got codes")
	}
	lens := buildLengths([]int64{0, 7, 0}, 15)
	if lens[1] != 1 {
		t.Fatalf("single symbol length = %d, want 1", lens[1])
	}
}

// Property: self round trip and stdlib round trip hold for arbitrary
// binary inputs.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(data []byte, levelSeed uint8) bool {
		level := int(levelSeed)%9 + 1
		comp := CompressLevel(data, level)
		got, err := Decompress(comp)
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		// stdlib must also accept it
		r := flate.NewReader(bytes.NewReader(comp))
		std, err := io.ReadAll(r)
		if err != nil {
			return false
		}
		return bytes.Equal(std, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: we can inflate anything stdlib deflates.
func TestPropertyInflateStdlib(t *testing.T) {
	f := func(data []byte) bool {
		var buf bytes.Buffer
		w, _ := flate.NewWriter(&buf, 6)
		w.Write(data)
		w.Close()
		got, err := Decompress(buf.Bytes())
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioEdge(t *testing.T) {
	if Ratio(nil, []byte("x")) != 1 {
		t.Fatal("Ratio of empty original should be 1")
	}
	if Ratio([]byte("abcd"), []byte("ab")) != 0.5 {
		t.Fatal("Ratio arithmetic wrong")
	}
}

func TestRLEEncodeBoundaries(t *testing.T) {
	// Decode an RLE stream by expanding its symbols manually.
	expand := func(syms []clSym) []uint8 {
		var out []uint8
		for _, s := range syms {
			switch {
			case s.sym < 16:
				out = append(out, uint8(s.sym))
			case s.sym == 16:
				prev := out[len(out)-1]
				for i := 0; i < int(s.extra)+3; i++ {
					out = append(out, prev)
				}
			case s.sym == 17:
				for i := 0; i < int(s.extra)+3; i++ {
					out = append(out, 0)
				}
			case s.sym == 18:
				for i := 0; i < int(s.extra)+11; i++ {
					out = append(out, 0)
				}
			}
		}
		return out
	}
	cases := [][]uint8{
		{},
		{5},
		{0, 0},                       // short zero run: literals
		{0, 0, 0},                    // exactly 3 zeros: code 17
		make([]uint8, 10),            // 10 zeros: code 17 max
		make([]uint8, 11),            // 11 zeros: code 18 min
		make([]uint8, 138),           // code 18 max
		make([]uint8, 139),           // 18 + literal run
		make([]uint8, 300),           // two 18s + remainder
		{7, 7, 7, 7},                 // value + repeat 3 (code 16 min)
		{7, 7, 7, 7, 7, 7, 7},        // value + repeat 6 (code 16 max)
		{7, 7, 7, 7, 7, 7, 7, 7},     // value + 16 + leftover
		{1, 2, 2, 2, 2, 0, 0, 0, 3},  // mixed
		{15, 15, 15, 15, 15, 15, 15}, // max length value runs
	}
	for i, c := range cases {
		syms := rleEncode(c)
		got := expand(syms)
		if len(got) != len(c) {
			t.Errorf("case %d: expanded %d values, want %d", i, len(got), len(c))
			continue
		}
		for j := range c {
			if got[j] != c[j] {
				t.Errorf("case %d: value %d = %d, want %d", i, j, got[j], c[j])
				break
			}
		}
		// No symbol may exceed the code-length alphabet.
		for _, s := range syms {
			if s.sym > 18 {
				t.Errorf("case %d: symbol %d out of range", i, s.sym)
			}
		}
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	lens := []uint8{3, 3, 3, 3, 3, 2, 4, 4}
	codes := canonicalCodes(lens)
	// Kraft check first.
	sum := 0.0
	for _, l := range lens {
		sum += 1 / float64(int(1)<<l)
	}
	if sum != 1.0 {
		t.Fatalf("test vector not complete: %v", sum)
	}
	// No code may be a prefix of another.
	for i := range lens {
		for j := range lens {
			if i == j {
				continue
			}
			li, lj := uint(lens[i]), uint(lens[j])
			if li > lj {
				continue
			}
			if codes[j]>>(lj-li) == codes[i] {
				t.Fatalf("code %d (%0*b) is a prefix of code %d (%0*b)",
					i, li, codes[i], j, lj, codes[j])
			}
		}
	}
	// RFC 1951's worked example: lengths (3,3,3,3,3,2,4,4) produce
	// codes 010..111, 00, 1110, 1111.
	want := []uint32{0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("code %d = %b, want %b", i, codes[i], want[i])
		}
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w bitWriter
	values := []struct {
		v uint32
		n uint
	}{{1, 1}, {0, 1}, {5, 3}, {255, 8}, {1023, 10}, {0x7fff, 15}, {1, 1}}
	for _, x := range values {
		w.writeBits(x.v, x.n)
	}
	r := bitReader{in: w.bytes()}
	for i, x := range values {
		if got := r.bits(x.n); got != x.v {
			t.Fatalf("value %d = %d, want %d", i, got, x.v)
		}
	}
	// 39 bits written: the rest of the last byte is padding in the input,
	// the bit after it padding the reader supplies.
	if r.overrun() {
		t.Fatal("overrun within the input")
	}
	r.bits(1)
	if r.overrun() {
		t.Fatal("overrun within the last byte")
	}
	r.bits(1)
	if !r.overrun() {
		t.Fatal("reading past the input not reported")
	}
}

func TestLevelParamsMonotonicEffort(t *testing.T) {
	prev := 0
	for _, level := range []int{1, 3, 6, 9} {
		p := levelParams(level)
		if p.maxChain < prev {
			t.Fatalf("maxChain not monotone at level %d", level)
		}
		prev = p.maxChain
	}
}
