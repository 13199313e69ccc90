// Package flatez is a from-scratch implementation of the DEFLATE
// compressed data format (RFC 1951) and the zlib wrapper (RFC 1950),
// re-creating the zlib 1.04 functionality the paper used for HTTP
// "Content-Encoding: deflate" transport compression.
//
// The encoder uses hash-chain LZ77 matching with lazy evaluation and
// dynamic Huffman blocks; the decoder, table-driven like zlib's, accepts
// stored, fixed, and dynamic blocks. Both ends are cross-validated against
// the Go standard library's compress/flate in the package tests, the
// decoder also against a bit-at-a-time reference, and both support preset
// dictionaries
// (the paper's "compression dictionaries optimized for HTML" future-work
// item).
package flatez

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt reports invalid compressed data.
var ErrCorrupt = errors.New("flatez: corrupt deflate stream")

// bitWriter writes bits LSB-first as DEFLATE requires.
type bitWriter struct {
	out  []byte
	acc  uint64
	nacc uint
}

// writeBits appends the low n bits of v.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc |= uint64(v) << w.nacc
	w.nacc += n
	for w.nacc >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

// writeCode appends a Huffman code, which is stored MSB-first within its
// length and must be emitted bit-reversed.
func (w *bitWriter) writeCode(code uint32, length uint) {
	w.writeBits(reverseBits(code, length), length)
}

// alignByte pads with zero bits to the next byte boundary.
func (w *bitWriter) alignByte() {
	if w.nacc > 0 {
		w.out = append(w.out, byte(w.acc))
		w.acc = 0
		w.nacc = 0
	}
}

// bytes returns the completed output, flushing any partial byte.
func (w *bitWriter) bytes() []byte {
	w.alignByte()
	return w.out
}

// reverseBits reverses the low n bits of v.
func reverseBits(v uint32, n uint) uint32 {
	var r uint32
	for i := uint(0); i < n; i++ {
		r = r<<1 | (v & 1)
		v >>= 1
	}
	return r
}

// errUnexpectedEOF reports a stream that ends inside a block.
var errUnexpectedEOF = fmt.Errorf("%w: unexpected end of input", ErrCorrupt)

// bitReader reads bits LSB-first through a 64-bit accumulator refilled a
// word at a time. The low nacc bits of acc are the next bits of the
// stream; the bits above them are either zero or the stream bits that
// follow, so OR-ing in a word that overlaps them changes nothing.
//
// Past the end of in, refill supplies zero bits and counts them in nacc
// like real ones (pos runs past len(in)), so the decode loop needs no
// end-of-input test of its own. Decoding may run a short way into that
// padding; overrun then reports it, and the caller returns
// errUnexpectedEOF.
type bitReader struct {
	in   []byte
	pos  int // next byte of in to load; may exceed len(in) (padding)
	acc  uint64
	nacc uint
}

// refill tops the accumulator up to at least 56 bits.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.in) {
		r.acc |= binary.LittleEndian.Uint64(r.in[r.pos:]) << r.nacc
		// (63-nacc)/8 whole bytes fit; nacc|56 is nacc plus their bits.
		r.pos += int(63-r.nacc) >> 3
		r.nacc |= 56
		return
	}
	for r.nacc < 56 {
		if r.pos < len(r.in) {
			r.acc |= uint64(r.in[r.pos]) << r.nacc
		}
		r.pos++
		r.nacc += 8
	}
}

// overrun reports whether any padding bit has been consumed: the stream
// ended before the decoder was done with it.
func (r *bitReader) overrun() bool {
	return r.pos > len(r.in) && uint(r.pos-len(r.in))*8 > r.nacc
}

// bits consumes and returns the next n (≤ 32) bits.
func (r *bitReader) bits(n uint) uint32 {
	if r.nacc < n {
		r.refill()
	}
	return r.take(n)
}

// take consumes and returns the next n bits, which must be in hand.
func (r *bitReader) take(n uint) uint32 {
	v := uint32(r.acc) & (1<<n - 1)
	r.acc >>= n
	r.nacc -= n
	return v
}

// decode consumes one code of t, which must be in hand, and returns its
// symbol; ok is false for a pattern the code does not assign.
func (r *bitReader) decode(t *huffTable) (sym uint32, ok bool) {
	e := t.entry(r.acc)
	n := e & entryLen
	r.acc >>= n
	r.nacc -= uint(n)
	return e >> 16, n != 0
}

// alignByte discards bits up to the next byte boundary and hands the
// whole bytes still buffered back to the input, leaving the accumulator
// empty and pos at the first unread byte (past the input if padding was
// consumed, which bytes then rejects).
func (r *bitReader) alignByte() {
	r.pos -= int(r.nacc >> 3)
	r.acc = 0
	r.nacc = 0
}

// bytes consumes n raw bytes after alignByte.
func (r *bitReader) bytes(n int) ([]byte, error) {
	if r.pos+n > len(r.in) {
		return nil, fmt.Errorf("%w: truncated stored block", ErrCorrupt)
	}
	b := r.in[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}
