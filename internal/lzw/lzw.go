// Package lzw implements the Lempel-Ziv-Welch coding family used by two
// substrates of the reproduction:
//
//   - the GIF flavor (variable code width, LSB-first packing, CLEAR/EOI
//     control codes) used by the GIF codec in internal/gifenc, and
//   - a BTLZ-style adaptive dictionary coder approximating the V.42bis
//     compression of 28.8k modems, used by the PPP link model for the
//     paper's "deflate beats modem compression" experiment.
package lzw

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrCorrupt reports invalid LZW data.
var ErrCorrupt = errors.New("lzw: corrupt stream")

const maxGIFWidth = 12

// encTable is a pooled encoder dictionary.
type encTable struct {
	entries [1 << (maxGIFWidth + 8)]int32
	gen     int32
}

var dictPool = sync.Pool{New: func() any { return new(encTable) }}

// Compress encodes data in GIF-variant LZW with the given literal width
// (2..8 bits). The output begins with a CLEAR code and ends with EOI, as
// GIF image data requires.
func Compress(data []byte, litWidth int) []byte {
	w := bitWriter{budget: math.MaxInt}
	encode(data, litWidth, &w)
	return w.bytes()
}

// CompressedLen returns len(Compress(data, litWidth)) and true when that
// length is below limit, and (limit, false) otherwise. It runs Compress's
// coder but keeps only a count of the bits, and stops as soon as the
// count shows the output reaching limit bytes, so sizing an input
// against a small limit costs only the prefix that fills it.
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
	clear := 1 << uint(litWidth)
	eoi := clear + 1

	width := uint(litWidth + 1)
	next := eoi + 1
	// The dictionary maps (prefix code, next byte) to a code. A flat
	// array indexed by prefix<<8|byte is much faster than a map here
	// (codes are bounded by 1<<maxGIFWidth). Entries are stamped with a
	// generation in the high bits so a CLEAR invalidates the whole table
	// without re-zeroing four megabytes, and tables are pooled across
	// calls.
	tbl := dictPool.Get().(*encTable)
	defer dictPool.Put(tbl)
	dict := tbl.entries[:]
	tbl.gen += 1 << 16
	if tbl.gen < 0 { // generation counter wrapped: start a fresh table
		tbl.gen = 1 << 16
		for i := range dict {
			dict[i] = 0
		}
	}
	gen := tbl.gen

	reset := func() {
		width = uint(litWidth + 1)
		next = eoi + 1
		tbl.gen += 1 << 16
		if tbl.gen < 0 {
			tbl.gen = 1 << 16
			for i := range dict {
				dict[i] = 0
			}
		}
		gen = tbl.gen
	}

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
		// Widen when the next code to be emitted would not fit.
		if next > 1<<width && width < maxGIFWidth {
			width++
		}
		if next >= 1<<maxGIFWidth {
			w.writeBits(uint32(clear), width)
			reset()
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

// Decompress decodes GIF-variant LZW data with the given literal width.
func Decompress(data []byte, litWidth int) ([]byte, error) {
	if litWidth < 2 || litWidth > 8 {
		return nil, fmt.Errorf("%w: literal width %d out of range", ErrCorrupt, litWidth)
	}
	clear := 1 << uint(litWidth)
	eoi := clear + 1

	r := bitReader{in: data}
	width := uint(litWidth + 1)

	// suffix/prefix arrays describe dictionary entries; entries < clear
	// are literals.
	prefix := make([]int, 1<<maxGIFWidth)
	suffix := make([]byte, 1<<maxGIFWidth)
	next := eoi + 1

	var out []byte
	last := -1
	var lastFirst byte // first byte of the string for code `last`

	expand := func(code int) []byte {
		var rev []byte
		for code >= clear {
			rev = append(rev, suffix[code])
			code = prefix[code]
		}
		rev = append(rev, byte(code))
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}

	for {
		code, err := r.readBits(width)
		if err != nil {
			return nil, err
		}
		c := int(code)
		switch {
		case c == clear:
			width = uint(litWidth + 1)
			next = eoi + 1
			last = -1
			continue
		case c == eoi:
			return out, nil
		case c < clear:
			out = append(out, byte(c))
			if last >= 0 && next < 1<<maxGIFWidth {
				prefix[next] = last
				suffix[next] = byte(c)
				next++
			}
			last = c
			lastFirst = byte(c)
		case c < next:
			s := expand(c)
			out = append(out, s...)
			if last >= 0 && next < 1<<maxGIFWidth {
				prefix[next] = last
				suffix[next] = s[0]
				next++
			}
			last = c
			lastFirst = s[0]
		case c == next && last >= 0:
			// The KwKwK case: the string is last's string plus its own
			// first byte.
			if next >= 1<<maxGIFWidth {
				return nil, fmt.Errorf("%w: code overflow", ErrCorrupt)
			}
			prefix[next] = last
			suffix[next] = lastFirst
			next++
			s := expand(c)
			out = append(out, s...)
			last = c
			lastFirst = s[0]
		default:
			return nil, fmt.Errorf("%w: code %d beyond dictionary (next %d)", ErrCorrupt, c, next)
		}
		if next > (1<<width)-1 && width < maxGIFWidth {
			width++
		}
	}
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

type bitReader struct {
	in   []byte
	pos  int
	acc  uint32
	nacc uint
}

func (r *bitReader) readBits(n uint) (uint32, error) {
	for r.nacc < n {
		if r.pos >= len(r.in) {
			return 0, fmt.Errorf("%w: unexpected end of stream", ErrCorrupt)
		}
		r.acc |= uint32(r.in[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
	v := r.acc & ((1 << n) - 1)
	r.acc >>= n
	r.nacc -= n
	return v, nil
}
