package lzw

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// oracleTable is the reference coder's dictionary: one fixed table as
// wide as a byte, whatever the literal width, stamped with generations.
type oracleTable struct {
	entries [1 << (maxGIFWidth + 8)]int32
	gen     int32
}

// oracleEncode is the reference for the coder: the GIF-variant loop as
// first written, one dictionary probe per input byte, over the whole
// input at once.
func oracleEncode(data []byte, litWidth int, w *bitWriter) {
	lw := uint(litWidth)
	clear := 1 << lw
	eoi := clear + 1
	width := lw + 1
	next := eoi + 1
	tbl := new(oracleTable)
	newGen := func() int32 {
		tbl.gen += 1 << 16
		if tbl.gen < 0 {
			tbl.gen = 1 << 16
			tbl.entries = [len(tbl.entries)]int32{}
		}
		return tbl.gen
	}
	dict := tbl.entries[:]
	gen := newGen()

	w.writeBits(uint32(clear), width)
	if len(data) == 0 {
		w.writeBits(uint32(eoi), width)
		return
	}
	cur := int(data[0])
	for _, b := range data[1:] {
		key := cur<<8 | int(b)
		if v := dict[key]; v&^0xffff == gen {
			cur = int(v & 0xffff)
			continue
		}
		w.writeBits(uint32(cur), width)
		if w.bits >= w.budget {
			return
		}
		dict[key] = gen | int32(next)
		next++
		if next > 1<<width && width < maxGIFWidth {
			width++
		}
		if next >= 1<<maxGIFWidth {
			w.writeBits(uint32(clear), width)
			width, next, gen = lw+1, eoi+1, newGen()
		}
		cur = int(b)
	}
	w.writeBits(uint32(cur), width)
	next++
	if next > 1<<width && width < maxGIFWidth {
		width++
	}
	w.writeBits(uint32(eoi), width)
}

func oracleCompress(data []byte, litWidth int) []byte {
	w := bitWriter{budget: math.MaxInt}
	oracleEncode(data, litWidth, &w)
	return w.bytes()
}

// runHeavy expands spec into alternating runs: each pair of bytes is a
// symbol (masked to the literal width) and a run length up to 4×255, so
// flat stretches long enough to outgrow any run list, and to fill the
// table and CLEAR it mid-run, are common.
func runHeavy(spec []byte, litWidth int) []byte {
	var out []byte
	for i := 0; i+1 < len(spec); i += 2 {
		sym := spec[i] & byte(1<<litWidth-1)
		n := 1 + int(spec[i+1])*int(spec[i]>>6+1)
		for range n {
			out = append(out, sym)
		}
	}
	return out
}

// countSplit feeds data to a Counter in pieces cut by the seed, the way
// an image arrives a row at a time.
func countSplit(data []byte, litWidth, limit int, seed int64) (int, bool) {
	r := rand.New(rand.NewSource(seed))
	k := NewCounter(litWidth, limit)
	for off := 0; off < len(data); {
		n := min(len(data)-off, r.Intn(300))
		if !k.Write(data[off : off+n]) {
			break
		}
		off += n
	}
	return k.Len()
}

// checkAgainstOracle holds Compress, CompressedLen and a Counter fed in
// pieces to the reference coder at each limit.
func checkAgainstOracle(t *testing.T, data []byte, lw int, seed int64, limits ...int) {
	t.Helper()
	want := oracleCompress(data, lw)
	if got := Compress(data, lw); !bytes.Equal(got, want) {
		t.Errorf("lw%d, %d bytes in: Compress gives %d bytes, the oracle %d", lw, len(data), len(got), len(want))
		return
	}
	for _, limit := range append(limits, 0, 1, len(want)-1, len(want), len(want)+1, math.MaxInt) {
		checkCompressedLen(t, data, lw, limit, len(want))
		n, ok := countSplit(data, lw, limit, seed)
		if wantOK := len(want) < limit; ok != wantOK || ok && n != len(want) || !ok && n != limit {
			t.Errorf("lw%d, %d bytes in pieces (seed %d): Counter(limit %d) = (%d, %v); the oracle gives %d bytes",
				lw, len(data), seed, limit, n, ok, len(want))
		}
	}
}

// The run fast path, the streaming counter and the kept tables change no
// code: at every literal width, on flat, run-heavy and noisy input,
// across CLEARs and at every limit, the output is the reference coder's,
// also when coders of several widths run at once on more workers than a
// width keeps tables for, with collections in between.
func TestEncodeMatchesOracle(t *testing.T) {
	type input struct {
		lw   int
		data []byte
		seed int64
	}
	var inputs []input
	r := rand.New(rand.NewSource(44))
	for lw := 2; lw <= 8; lw++ {
		symbols := 1 << lw
		spec := make([]byte, 400)
		r.Read(spec)
		noisy := make([]byte, 30_000)
		for i := range noisy {
			noisy[i] = byte(r.Intn(symbols))
			if i > 0 && r.Intn(4) > 0 {
				noisy[i] = noisy[i-1]
			}
		}
		for i, data := range [][]byte{
			{},
			{1},
			bytes.Repeat([]byte{1}, 100_000), // outgrows the table: CLEARs mid-run
			runHeavy(spec, lw),
			noisy,
		} {
			inputs = append(inputs, input{lw, data, int64(i)})
		}
	}
	check := func(in input) {
		want := len(oracleCompress(in.data, in.lw))
		checkAgainstOracle(t, in.data, in.lw, in.seed, want/3, want/2)
	}
	for _, in := range inputs {
		check(in)
	}
	order := rand.New(rand.NewSource(45)).Perm(len(inputs))
	sim.ForEach(runtime.GOMAXPROCS(0)+1, len(order), func(i int) error {
		if i%4 == 0 {
			runtime.GC()
		}
		check(inputs[order[i]])
		return nil
	})
}

// FuzzEncodeMatchesOracle holds the coder, whole and in pieces, to the
// reference on arbitrary run-heavy input, literal width, limit and split.
func FuzzEncodeMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 200, 2, 3, 1, 255}, 2, 40, int64(1))
	f.Add([]byte{0xff, 0xff, 0x7f, 0xff, 0x3f, 0x80}, 8, 1000, int64(2))
	f.Add([]byte("TOBEORNOTTOBEORTOBEORNOT"), 5, 7, int64(3))
	f.Fuzz(func(t *testing.T, spec []byte, litWidth, limit int, seed int64) {
		lw := 2 + (litWidth%7+7)%7
		checkAgainstOracle(t, runHeavy(spec, lw), lw, seed, limit)
	})
}
