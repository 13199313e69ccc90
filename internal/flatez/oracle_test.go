package flatez

import "fmt"

// The decoder below is the reference the table-driven inflater is
// compared against: a transcription of Mark Adler's puff.c, written for
// clarity rather than speed. It reads one bit per call and tries every
// code length in turn, so each step of a decode is easy to check against
// RFC 1951. It was the package's decoder until the tables replaced it.

// oracleBitReader reads bits LSB-first, one byte at a time, so it never
// holds more than 7 bits beyond those asked for.
type oracleBitReader struct {
	in   []byte
	pos  int
	acc  uint64
	nacc uint
}

func (r *oracleBitReader) readBits(n uint) (uint32, error) {
	for r.nacc < n {
		if r.pos >= len(r.in) {
			return 0, fmt.Errorf("%w: unexpected end of input", ErrCorrupt)
		}
		r.acc |= uint64(r.in[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
	v := uint32(r.acc) & ((1 << n) - 1)
	r.acc >>= n
	r.nacc -= n
	return v, nil
}

// alignByte discards bits up to the next byte boundary.
func (r *oracleBitReader) alignByte() {
	r.acc = 0
	r.nacc = 0
}

// readBytes copies n raw bytes (must be byte-aligned).
func (r *oracleBitReader) readBytes(n int) ([]byte, error) {
	if r.nacc != 0 {
		panic("flatez: readBytes while not byte-aligned")
	}
	if r.pos+n > len(r.in) {
		return nil, fmt.Errorf("%w: truncated stored block", ErrCorrupt)
	}
	b := r.in[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// huffDecoder decodes canonical Huffman codes bit by bit (the approach of
// puff.c: counts per length plus symbols sorted by code).
type huffDecoder struct {
	count  []int // count[l] = number of codes of length l
	symbol []int // symbols ordered by (length, symbol)
}

// newHuffDecoder builds a decoder from code lengths. It rejects
// over-subscribed codes; incomplete codes are accepted (they only error
// if a missing code is actually encountered), matching DEFLATE's
// allowance for a partial distance code.
func newHuffDecoder(lens []uint8) (*huffDecoder, error) {
	d := &huffDecoder{count: make([]int, maxCodeBits+1)}
	for _, l := range lens {
		if l > 0 {
			d.count[l]++
		}
	}
	left := 1
	for l := 1; l <= maxCodeBits; l++ {
		left <<= 1
		left -= d.count[l]
		if left < 0 {
			return nil, fmt.Errorf("%w: over-subscribed huffman code", ErrCorrupt)
		}
	}
	offs := make([]int, maxCodeBits+2)
	for l := 1; l <= maxCodeBits; l++ {
		offs[l+1] = offs[l] + d.count[l]
	}
	d.symbol = make([]int, offs[maxCodeBits+1])
	for sym, l := range lens {
		if l > 0 {
			d.symbol[offs[l]] = sym
			offs[l]++
		}
	}
	return d, nil
}

// decode reads one symbol from r.
func (d *huffDecoder) decode(r *oracleBitReader) (int, error) {
	code, first, index := 0, 0, 0
	for l := 1; l <= maxCodeBits; l++ {
		b, err := r.readBits(1)
		if err != nil {
			return 0, err
		}
		code |= int(b)
		count := d.count[l]
		if code-first < count {
			return d.symbol[index+code-first], nil
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, fmt.Errorf("%w: invalid huffman code", ErrCorrupt)
}

// oracleDecompressDict is DecompressDict as the reference decoder does it.
func oracleDecompressDict(data, dict []byte) ([]byte, error) {
	if len(dict) > windowSize {
		dict = dict[len(dict)-windowSize:]
	}
	out := make([]byte, len(dict), len(dict)+len(data)*3)
	copy(out, dict)
	r := &oracleBitReader{in: data}
	for {
		final, err := r.readBits(1)
		if err != nil {
			return nil, err
		}
		btype, err := r.readBits(2)
		if err != nil {
			return nil, err
		}
		switch btype {
		case 0:
			out, err = oracleInflateStored(r, out)
		case 1:
			out, err = oracleInflateFixed(r, out)
		case 2:
			out, err = oracleInflateDynamic(r, out)
		default:
			err = fmt.Errorf("%w: reserved block type", ErrCorrupt)
		}
		if err != nil {
			return nil, err
		}
		if final == 1 {
			return out[len(dict):], nil
		}
	}
}

func oracleInflateStored(r *oracleBitReader, out []byte) ([]byte, error) {
	r.alignByte()
	hdr, err := r.readBytes(4)
	if err != nil {
		return nil, err
	}
	n := int(hdr[0]) | int(hdr[1])<<8
	nlen := int(hdr[2]) | int(hdr[3])<<8
	if n != ^nlen&0xffff {
		return nil, fmt.Errorf("%w: stored block length check failed", ErrCorrupt)
	}
	body, err := r.readBytes(n)
	if err != nil {
		return nil, err
	}
	return append(out, body...), nil
}

func oracleInflateFixed(r *oracleBitReader, out []byte) ([]byte, error) {
	litDec, err := newHuffDecoder(fixedLitLens())
	if err != nil {
		return nil, err
	}
	distDec, err := newHuffDecoder(fixedDistLens())
	if err != nil {
		return nil, err
	}
	return oracleInflateCoded(r, out, litDec, distDec)
}

func oracleInflateDynamic(r *oracleBitReader, out []byte) ([]byte, error) {
	hlit, err := r.readBits(5)
	if err != nil {
		return nil, err
	}
	hdist, err := r.readBits(5)
	if err != nil {
		return nil, err
	}
	hclen, err := r.readBits(4)
	if err != nil {
		return nil, err
	}
	nlit, ndist, ncl := int(hlit)+257, int(hdist)+1, int(hclen)+4
	if nlit > 286 || ndist > 30 {
		return nil, fmt.Errorf("%w: too many codes (%d lit, %d dist)", ErrCorrupt, nlit, ndist)
	}

	clLens := make([]uint8, 19)
	for i := 0; i < ncl; i++ {
		v, err := r.readBits(3)
		if err != nil {
			return nil, err
		}
		clLens[clOrder[i]] = uint8(v)
	}
	clDec, err := newHuffDecoder(clLens)
	if err != nil {
		return nil, err
	}

	all := make([]uint8, nlit+ndist)
	for i := 0; i < len(all); {
		sym, err := clDec.decode(r)
		if err != nil {
			return nil, err
		}
		switch {
		case sym < 16:
			all[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				return nil, fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			n, err := r.readBits(2)
			if err != nil {
				return nil, err
			}
			prev := all[i-1]
			for k := 0; k < int(n)+3; k++ {
				if i >= len(all) {
					return nil, fmt.Errorf("%w: length repeat overflow", ErrCorrupt)
				}
				all[i] = prev
				i++
			}
		case sym == 17:
			n, err := r.readBits(3)
			if err != nil {
				return nil, err
			}
			i += int(n) + 3
		case sym == 18:
			n, err := r.readBits(7)
			if err != nil {
				return nil, err
			}
			i += int(n) + 11
		default:
			return nil, fmt.Errorf("%w: bad code-length symbol %d", ErrCorrupt, sym)
		}
		if i > len(all) {
			return nil, fmt.Errorf("%w: length run overflow", ErrCorrupt)
		}
	}
	if all[256] == 0 {
		return nil, fmt.Errorf("%w: missing end-of-block code", ErrCorrupt)
	}
	litDec, err := newHuffDecoder(all[:nlit])
	if err != nil {
		return nil, err
	}
	distDec, err := newHuffDecoder(all[nlit:])
	if err != nil {
		return nil, err
	}
	return oracleInflateCoded(r, out, litDec, distDec)
}

func oracleInflateCoded(r *oracleBitReader, out []byte, litDec, distDec *huffDecoder) ([]byte, error) {
	for {
		sym, err := litDec.decode(r)
		if err != nil {
			return nil, err
		}
		switch {
		case sym < 256:
			out = append(out, byte(sym))
		case sym == 256:
			return out, nil
		default:
			lc := sym - 257
			if lc >= len(lengthBase) {
				return nil, fmt.Errorf("%w: bad length symbol %d", ErrCorrupt, sym)
			}
			extra, err := r.readBits(lengthExtra[lc])
			if err != nil {
				return nil, err
			}
			length := lengthBase[lc] + int(extra)

			dsym, err := distDec.decode(r)
			if err != nil {
				return nil, err
			}
			if dsym >= len(distBase) {
				return nil, fmt.Errorf("%w: bad distance symbol %d", ErrCorrupt, dsym)
			}
			dextra, err := r.readBits(distExtra[dsym])
			if err != nil {
				return nil, err
			}
			dist := distBase[dsym] + int(dextra)
			if dist > len(out) {
				return nil, fmt.Errorf("%w: distance %d beyond output", ErrCorrupt, dist)
			}
			// Byte-by-byte copy: overlapping references replicate runs.
			start := len(out) - dist
			for k := 0; k < length; k++ {
				out = append(out, out[start+k])
			}
		}
	}
}
