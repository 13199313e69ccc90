package flatez

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// matchOracle inflates data with the decoder and with the reference
// decoder and requires the same bytes, or a failure from both, wrapping
// ErrCorrupt.
func matchOracle(data, dict []byte) error {
	got, err := DecompressDict(data, dict)
	want, wantErr := oracleDecompressDict(data, dict)
	switch {
	case (err == nil) != (wantErr == nil):
		return fmt.Errorf("error %v, oracle %v", err, wantErr)
	case err != nil && !errors.Is(err, ErrCorrupt):
		return fmt.Errorf("error %v does not wrap ErrCorrupt", err)
	case !bytes.Equal(got, want):
		return fmt.Errorf("%d bytes differ from the oracle's %d", len(got), len(want))
	}
	return nil
}

// stdStream deflates the chunks with compress/flate at level, flushing
// after each but the last: a flush ends the block and adds an empty stored
// block, wherever in a byte the block ended.
func stdStream(t *testing.T, level int, dict []byte, chunks ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriterDict(&buf, level, dict)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if _, err := w.Write(c); err != nil {
			t.Fatal(err)
		}
		if i < len(chunks)-1 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fibonacciLiterals returns literal tokens over n symbols whose counts
// follow the Fibonacci sequence, which makes the optimal code as deep as
// the symbols are many, and the data they spell.
func fibonacciLiterals(n int) ([]token, []byte) {
	var tokens []token
	var data []byte
	a, b := 1, 1
	for s := 0; s < n; s++ {
		for k := 0; k < a; k++ {
			tokens = append(tokens, token{lit: byte('A' + s)})
			data = append(data, byte('A'+s))
		}
		a, b = b, a+b
	}
	rand.New(rand.NewSource(5)).Shuffle(len(tokens), func(i, j int) {
		tokens[i], tokens[j] = tokens[j], tokens[i]
		data[i], data[j] = data[j], data[i]
	})
	return tokens, data
}

func TestInflateMatchesOracle(t *testing.T) {
	random := testCorpora["incompressible"]
	html := testCorpora["html"]
	streams := map[string][]byte{}
	for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		for name, data := range testCorpora {
			streams[fmt.Sprintf("std/L%d/%s", level, name)] = stdStream(t, level, nil, data)
		}
		// Coded blocks, each ended at whatever bit it ends on, followed by
		// stored ones: the empty block of every flush, and random data the
		// compressor finds cheaper to store.
		streams[fmt.Sprintf("std/L%d/flushed", level)] = stdStream(t, level, nil, html[:3000], random, html[3000:], []byte("x"), random[:100])
	}

	// A stored block that starts mid-byte, after a fixed block that ends
	// at bit 34 with most of the stored block already in the accumulator:
	// alignByte has to hand those bytes back.
	var w bitWriter
	emitCoded(&w, []token{{lit: 'a'}, {lit: 'b'}, {lit: 'c'}}, fixedLitLens(), fixedDistLens(), 1, false)
	if len(w.out)*8+int(w.nacc) != 34 {
		t.Fatalf("fixed block ends at bit %d, want 34", len(w.out)*8+int(w.nacc))
	}
	emitStored(&w, []byte("stored after a fixed block"), false)
	emitCoded(&w, []token{{lit: 'z'}, {length: 3, dist: 1}}, fixedLitLens(), fixedDistLens(), 1, true)
	streams["fixed+stored+fixed"] = w.bytes()

	// 15-bit codes.
	fib, fibData := fibonacciLiterals(24)
	freq := make([]int64, 286)
	for _, tok := range fib {
		freq[tok.lit]++
	}
	if l := buildLengths(freq, maxCodeBits); l['A'] != maxCodeBits {
		t.Fatalf("Fibonacci code lengths %v lack a 15-bit code", l['A':'A'+24])
	}
	w = bitWriter{}
	emitBlock(&w, fib, fibData, true)
	streams["15-bit"] = w.bytes()

	for name, s := range streams {
		if err := matchOracle(s, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if got, err := Decompress(streams["15-bit"]); err != nil || !bytes.Equal(got, fibData) {
		t.Errorf("15-bit stream: %v", err)
	}

	// Preset dictionaries: ours at three levels, compress/flate's, one
	// longer than the window, and the wrong dictionary.
	dict := []byte("GET /images/ HTTP/1.1\r\nHost: microscape\r\nAccept: */*\r\n")
	long := append(bytes.Repeat([]byte("z"), windowSize), html[:2000]...)
	dicts := map[string][]byte{"short": dict, "long": long}
	for name, d := range dicts {
		for _, level := range []int{1, 6, 9} {
			comp := CompressDict(html[:4000], d, level)
			if err := matchOracle(comp, d); err != nil {
				t.Errorf("dict %s/L%d: %v", name, level, err)
			}
			if err := matchOracle(comp, []byte("a different dictionary")); err != nil {
				t.Errorf("dict %s/L%d, wrong dictionary: %v", name, level, err)
			}
		}
		comp := stdStream(t, 6, d, html[:4000])
		if err := matchOracle(comp, d); err != nil {
			t.Errorf("std dict %s: %v", name, err)
		}
	}
}

// dynamicHeader starts a final dynamic block for the given code lengths,
// leaving the symbols to the caller.
func dynamicHeader(litLens, distLens []uint8) *bitWriter {
	rle := rleEncode(append(append([]uint8(nil), litLens...), distLens...))
	clFreq := make([]int64, 19)
	for _, s := range rle {
		clFreq[s.sym]++
	}
	clLens := buildLengths(clFreq, maxCLBits)
	clCodes := canonicalCodes(clLens)
	w := &bitWriter{}
	w.writeBits(1, 1)
	w.writeBits(2, 2)
	w.writeBits(uint32(len(litLens)-257), 5)
	w.writeBits(uint32(len(distLens)-1), 5)
	w.writeBits(19-4, 4)
	for _, sym := range clOrder {
		w.writeBits(uint32(clLens[sym]), 3)
	}
	for _, s := range rle {
		w.writeCode(clCodes[s.sym], uint(clLens[s.sym]))
		w.writeBits(s.extra, s.extraBits)
	}
	return w
}

func TestTableEdgeCases(t *testing.T) {
	data := []byte("abcabcabcabcabcabcabc")
	tokens := []token{{lit: 'a'}, {lit: 'b'}, {lit: 'c'}, {length: 18, dist: 3}}
	// A complete literal/length code: a-c, end-of-block and the length-18
	// symbol (268) at 3, 3, 2, 2, 2 bits.
	litLens := make([]uint8, 269)
	litLens['a'], litLens['b'], litLens['c'], litLens[256], litLens[268] = 3, 3, 2, 2, 2

	// check decodes stream to want, or fails with wantErr.
	check := func(name string, stream, want []byte, wantErr error) {
		t.Helper()
		if err := matchOracle(stream, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		got, err := Decompress(stream)
		if wantErr != nil && !errors.Is(err, wantErr) || wantErr == nil && (err != nil || !bytes.Equal(got, want)) {
			t.Errorf("%s: %q, %v; want %q, %v", name, got, err, want, wantErr)
		}
	}

	// A single distance code of one bit (distance 3 is code 2), which RFC
	// 1951 allows; the other one-bit pattern is unassigned.
	var dist huffTable
	distLens := []uint8{0, 0, 1}
	if err := dist.build(distLens); err != nil {
		t.Fatalf("single one-bit distance code rejected: %v", err)
	}
	if e := dist.entry(0); e != 2<<16|1 {
		t.Errorf("entry for 0 = %#x, want symbol 2, length 1", e)
	}
	if e := dist.entry(1); e != 0 {
		t.Errorf("entry for 1 = %#x, want unassigned", e)
	}
	w := dynamicHeader(litLens, distLens)
	writeTokens(w, tokens, litLens, distLens)
	check("single distance code", w.bytes(), data, nil)
	// The same match sent with the unassigned distance pattern.
	w = dynamicHeader(litLens, distLens)
	codes := canonicalCodes(litLens)
	for _, c := range "abc" {
		w.writeCode(codes[c], uint(litLens[c]))
	}
	w.writeCode(codes[268], 2)
	w.writeBits(1, 1) // length 17 + 1
	w.writeBits(1, 1) // distance pattern 1
	w.writeCode(codes[256], 2)
	check("unassigned distance pattern", w.bytes(), nil, errInvalidCode)

	// An incomplete literal/length code (Kraft sum 7/8): accepted while the
	// stream keeps to assigned codes, corrupt once it sends the gap, 111.
	incomplete := make([]uint8, 257)
	incomplete['a'], incomplete['b'], incomplete[256] = 1, 2, 3
	var lit huffTable
	if err := lit.build(incomplete); err != nil {
		t.Fatalf("incomplete code rejected: %v", err)
	}
	for _, acc := range []uint64{0b111, 0b111_111} {
		if e := lit.entry(acc); e != 0 {
			t.Errorf("entry for %b = %#x, want unassigned", acc, e)
		}
	}
	w = dynamicHeader(incomplete, []uint8{1})
	writeTokens(w, []token{{lit: 'a'}, {lit: 'b'}, {lit: 'a'}}, incomplete, []uint8{1})
	check("incomplete literal code, gap never sent", w.bytes(), []byte("aba"), nil)
	w = dynamicHeader(incomplete, []uint8{1})
	w.writeBits(0, 1) // a
	w.writeBits(0b111, 3)
	writeTokens(w, []token{{lit: 'a'}}, incomplete, []uint8{1})
	check("incomplete literal code, gap sent", w.bytes(), nil, errInvalidCode)

	// Over-subscribed codes fail when the tables are built: in the
	// literal/length code, in the distance code, and in the code-length
	// code itself.
	over := append([]uint8(nil), litLens...)
	over['d'] = 2
	if err := lit.build(over); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over-subscribed code: %v, want ErrCorrupt", err)
	}
	w = dynamicHeader(over, distLens)
	writeTokens(w, tokens, litLens, distLens)
	check("over-subscribed literal code", w.bytes(), nil, ErrCorrupt)
	w = dynamicHeader(litLens, []uint8{1, 1, 1})
	writeTokens(w, tokens, litLens, distLens)
	check("over-subscribed distance code", w.bytes(), nil, ErrCorrupt)
	w = &bitWriter{}
	w.writeBits(1, 1)
	w.writeBits(2, 2)
	w.writeBits(0, 5+5)
	w.writeBits(19-4, 4)
	for range clOrder {
		w.writeBits(1, 3) // 19 one-bit codes
	}
	check("over-subscribed code-length code", w.bytes(), nil, ErrCorrupt)

	// Either side of the root table's edge: 254 literals of 8 bits, two of
	// 9 (the longest that resolve in the root) and four of 10 (the
	// shortest in a sub-table), among them end-of-block and length 3.
	boundary := make([]uint8, 260)
	for i := range boundary {
		switch {
		case i < 254:
			boundary[i] = 8
		case i < 256:
			boundary[i] = 9
		default:
			boundary[i] = 10
		}
	}
	codes = canonicalCodes(boundary)
	if err := lit.build(boundary); err != nil {
		t.Fatal(err)
	}
	for _, sym := range []int{0, 253, 254, 255, 256, 257, 259} {
		n := uint(boundary[sym])
		want := uint32(sym)<<16 | uint32(n)
		// Whatever bits follow the code must not change the entry.
		for _, next := range []uint64{0, 0b101101, 1<<(16-n) - 1} {
			if e := lit.entry(uint64(reverseBits(codes[sym], n)) | next<<n); e != want {
				t.Errorf("symbol %d (%d bits), next bits %b: entry %#x, want %#x", sym, n, next, e, want)
			}
		}
	}
	edge := []token{{lit: 253}, {lit: 254}, {lit: 255}, {length: 3, dist: 1}, {lit: 0}}
	w = dynamicHeader(boundary, []uint8{1})
	writeTokens(w, edge, boundary, []uint8{1})
	check("9- and 10-bit codes", w.bytes(), []byte{253, 254, 255, 255, 255, 255, 0}, nil)

	// A rebuilt table keeps nothing of the code before: a lone 10-bit code
	// gets a two-entry sub-table whose other half is unassigned.
	if err := lit.build([]uint8{10}); err != nil {
		t.Fatal(err)
	}
	for acc, want := range map[uint64]uint32{0: 10, 1 << rootBits: 0, 1: 0} {
		if e := lit.entry(acc); e != want {
			t.Errorf("lone 10-bit code: entry for %b = %#x, want %#x", acc, e, want)
		}
	}
}

func FuzzInflateMatchesOracle(f *testing.F) {
	html := testCorpora["html"][:3000]
	f.Add(Compress(html), []byte(nil))
	f.Add(CompressLevel(testCorpora["incompressible"][:500], 1), []byte(nil))
	f.Add(CompressDict(html, html[:300], 9), html[:300])
	f.Add(Compress(html)[:200], []byte(nil))
	f.Add([]byte{0x01, 0x03, 0x00, 0xfc, 0xff, 'a', 'b', 'c'}, []byte(nil))
	f.Add([]byte{0x02, 0xff, 0x00}, []byte("x"))
	f.Fuzz(func(t *testing.T, data, dict []byte) {
		if err := matchOracle(data, dict); err != nil {
			t.Fatal(err)
		}
	})
}
