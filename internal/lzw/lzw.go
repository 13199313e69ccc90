// Package lzw implements the Lempel-Ziv-Welch coding family used by two
// substrates of the reproduction:
//
//   - the GIF flavor (variable code width, LSB-first packing, CLEAR/EOI
//     control codes) used by the GIF encoder in internal/gifenc, whose
//     output the package tests decode with the standard library's
//     compress/lzw, and
//   - a BTLZ-style adaptive dictionary coder approximating the V.42bis
//     compression of 28.8k modems, used by the PPP link model for the
//     paper's "deflate beats modem compression" experiment.
package lzw

import (
	"fmt"
	"math"
	"sync"
)

const maxGIFWidth = 12

// encTable is a pooled encoder dictionary.
type encTable struct {
	entries [1 << (maxGIFWidth + 8)]int32
	gen     int32
}

// newGen stamps a new generation, which empties the table; when the
// stamp wraps, the table is zeroed instead.
func (t *encTable) newGen() int32 {
	t.gen += 1 << 16
	if t.gen < 0 {
		t.gen = 1 << 16
		clear(t.entries[:])
	}
	return t.gen
}

var dictPool = sync.Pool{New: func() any { return new(encTable) }}

// Compress encodes data in GIF-variant LZW with the given literal width
// (2..8 bits). The output begins with a CLEAR code and ends with EOI, as
// GIF image data requires. It panics on a byte of data that does not fit
// the literal width.
func Compress(data []byte, litWidth int) []byte {
	w := bitWriter{budget: math.MaxInt}
	encode(data, litWidth, &w)
	return w.bytes()
}

// CompressedLen returns len(Compress(data, litWidth)) and true when that
// length is below limit, and (limit, false) otherwise. It runs Compress's
// coder but keeps only a count of the bits, and stops as soon as the
// count shows the output reaching limit bytes, so sizing an input
// against a small limit costs only the prefix that fills it. Like
// Compress it panics on a byte beyond the literal width, once the coder
// reaches it.
func CompressedLen(data []byte, litWidth, limit int) (int, bool) {
	if limit <= 0 {
		return limit, false
	}
	// The output reaches limit bytes once it holds more than limit-1
	// whole bytes of bits.
	w := bitWriter{counting: true, budget: math.MaxInt}
	if limit <= math.MaxInt/8 {
		w.budget = 8*(limit-1) + 1
	}
	encode(data, litWidth, &w)
	if n := (w.bits + 7) / 8; n < limit {
		return n, true
	}
	return limit, false
}

// encode runs the GIF-variant LZW coder over data, handing every code to
// w, and returns early once w has taken its budget of bits.
func encode(data []byte, litWidth int, w *bitWriter) {
	if litWidth < 2 || litWidth > 8 {
		panic(fmt.Sprintf("lzw: literal width %d out of range", litWidth))
	}
	lw := uint(litWidth)
	clear := 1 << lw
	eoi := clear + 1

	width := lw + 1
	next := eoi + 1
	// The dictionary maps (prefix code, next byte) to a code. A flat
	// array indexed by prefix<<litWidth|byte is much faster than a map
	// here (codes are bounded by 1<<maxGIFWidth), and rows as wide as the
	// palette keep a small palette's dictionary within 64 KB of the
	// table. Entries are stamped with a generation in the high bits so a
	// CLEAR invalidates the whole table without re-zeroing it, and tables
	// are pooled across calls.
	tbl := dictPool.Get().(*encTable)
	defer dictPool.Put(tbl)
	dict := tbl.entries[:]
	gen := tbl.newGen()

	w.writeBits(uint32(clear), width)
	if len(data) == 0 {
		w.writeBits(uint32(eoi), width)
		return
	}

	cur := int(data[0])
	if cur >= clear {
		panic(symbolPanic(data[0], litWidth))
	}
	for _, b := range data[1:] {
		if int(b) >= clear {
			panic(symbolPanic(b, litWidth))
		}
		key := cur<<lw | int(b)
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
		// Widen when the next code to be emitted would not fit.
		if next > 1<<width && width < maxGIFWidth {
			width++
		}
		if next >= 1<<maxGIFWidth {
			w.writeBits(uint32(clear), width)
			width, next, gen = lw+1, eoi+1, tbl.newGen()
		}
		cur = int(b)
	}
	w.writeBits(uint32(cur), width)
	// The decoder reserves a dictionary slot for every code it reads, so
	// the width bookkeeping must advance here too before EOI goes out
	// (compress/lzw's Close does the same incHi).
	next++
	if next > 1<<width && width < maxGIFWidth {
		width++
	}
	w.writeBits(uint32(eoi), width)
}

func symbolPanic(b byte, litWidth int) string {
	return fmt.Sprintf("lzw: symbol %d beyond literal width %d", b, litWidth)
}

// bitWriter packs codes LSB-first (GIF order). A counting writer packs
// nothing and only totals the bits.
type bitWriter struct {
	out      []byte
	acc      uint32
	nacc     uint
	counting bool
	bits     int // every bit written so far
	budget   int // the coder stops feeding the writer once bits reaches it
}

func (w *bitWriter) writeBits(v uint32, n uint) {
	w.bits += int(n)
	if w.counting {
		return
	}
	w.acc |= v << w.nacc
	w.nacc += n
	for w.nacc >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

func (w *bitWriter) bytes() []byte {
	if w.nacc > 0 {
		w.out = append(w.out, byte(w.acc))
		w.acc = 0
		w.nacc = 0
	}
	return w.out
}
