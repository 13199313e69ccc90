package flatez

import "fmt"

// errInvalidCode reports a bit pattern no code of the block assigns.
var errInvalidCode = fmt.Errorf("%w: invalid huffman code", ErrCorrupt)

// The fixed-block tables (RFC 1951 §3.2.6), built once.
var fixedLit, fixedDist huffTable

func init() {
	if err := fixedLit.build(fixedLitLens()); err != nil {
		panic(err)
	}
	if err := fixedDist.build(fixedDistLens()); err != nil {
		panic(err)
	}
}

// Decompress inflates a raw DEFLATE stream.
func Decompress(data []byte) ([]byte, error) {
	return DecompressDict(data, nil)
}

// inflater is one DecompressDict call's state. A dynamic block's tables
// live in it, so a block allocates nothing beyond the output.
type inflater struct {
	r         bitReader
	out       []byte
	lit, dist huffTable
}

// DecompressDict inflates a stream produced with the given preset
// dictionary.
func DecompressDict(data, dict []byte) ([]byte, error) {
	if len(dict) > windowSize {
		dict = dict[len(dict)-windowSize:]
	}
	// HTML deflates to about a quarter of its size, so four times the
	// input holds a page without regrowing.
	f := inflater{r: bitReader{in: data}, out: make([]byte, len(dict), len(dict)+len(data)*4)}
	copy(f.out, dict)
	for {
		hdr := f.r.bits(3) // BFINAL, then BTYPE
		var err error
		switch hdr >> 1 {
		case 0:
			err = f.stored()
		case 1:
			err = f.coded(&fixedLit, &fixedDist)
		case 2:
			err = f.dynamic()
		default:
			err = fmt.Errorf("%w: reserved block type", ErrCorrupt)
		}
		if err != nil {
			return nil, err
		}
		if hdr&1 == 1 {
			return f.out[len(dict):], nil
		}
	}
}

func (f *inflater) stored() error {
	f.r.alignByte()
	hdr, err := f.r.bytes(4)
	if err != nil {
		return err
	}
	n := int(hdr[0]) | int(hdr[1])<<8
	nlen := int(hdr[2]) | int(hdr[3])<<8
	if n != ^nlen&0xffff {
		return fmt.Errorf("%w: stored block length check failed", ErrCorrupt)
	}
	body, err := f.r.bytes(n)
	if err != nil {
		return err
	}
	f.out = append(f.out, body...)
	return nil
}

// dynamic reads a dynamic block's code lengths (RFC 1951 §3.2.7), builds
// its tables and decodes it.
func (f *inflater) dynamic() error {
	r := &f.r
	nlit := int(r.bits(5)) + 257
	ndist := int(r.bits(5)) + 1
	ncl := int(r.bits(4)) + 4
	if nlit > 286 || ndist > 30 {
		return fmt.Errorf("%w: too many codes (%d lit, %d dist)", ErrCorrupt, nlit, ndist)
	}
	var clLens [19]uint8
	for _, sym := range clOrder[:ncl] {
		clLens[sym] = uint8(r.bits(3))
	}
	// The code-length code borrows the literal table, which is built only
	// once the lengths are read.
	cl := &f.lit
	if err := cl.build(clLens[:]); err != nil {
		return err
	}

	var lens [286 + 30]uint8
	all := lens[:nlit+ndist]
	for i := 0; i < len(all); {
		if r.nacc < maxCLBits+7 { // a code and a repeat count
			r.refill()
		}
		sym, ok := r.decode(cl)
		if !ok {
			return errInvalidCode
		}
		switch {
		case sym < 16:
			all[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				return fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			n := 3 + int(r.bits(2))
			if i+n > len(all) {
				return fmt.Errorf("%w: length repeat overflow", ErrCorrupt)
			}
			for prev := all[i-1]; n > 0; n-- {
				all[i] = prev
				i++
			}
		case sym == 17:
			i += 3 + int(r.bits(3))
		default: // 18
			i += 11 + int(r.bits(7))
		}
		if i > len(all) {
			return fmt.Errorf("%w: length run overflow", ErrCorrupt)
		}
	}
	if all[256] == 0 {
		return fmt.Errorf("%w: missing end-of-block code", ErrCorrupt)
	}
	if err := f.lit.build(all[:nlit]); err != nil {
		return err
	}
	if err := f.dist.build(all[nlit:]); err != nil {
		return err
	}
	return f.coded(&f.lit, &f.dist)
}

// coded decodes a Huffman-coded block through its end-of-block code.
func (f *inflater) coded(lit, dist *huffTable) error {
	r := &f.r
	out := f.out
	for {
		// The longest literal or length/distance pair is 15 + 5 + 15 + 13
		// bits: with 48 in hand the whole step needs no refill. Checking
		// for overrun before each refill bounds how far a truncated stream
		// decodes into the padding; checking at the end of the block
		// rejects it before any block that read padding is accepted.
		if r.nacc < 48 {
			if r.overrun() {
				return errUnexpectedEOF
			}
			r.refill()
		}
		sym, ok := r.decode(lit)
		if !ok {
			return errInvalidCode
		}
		if sym < 256 {
			out = append(out, byte(sym))
			continue
		}
		if sym == 256 {
			if r.overrun() {
				return errUnexpectedEOF
			}
			f.out = out
			return nil
		}
		lc := sym - 257
		if lc >= uint32(len(lengthBase)) {
			return fmt.Errorf("%w: bad length symbol %d", ErrCorrupt, sym)
		}
		length := lengthBase[lc] + int(r.take(lengthExtra[lc]))
		dsym, ok := r.decode(dist)
		if !ok {
			return errInvalidCode
		}
		d := distBase[dsym] + int(r.take(distExtra[dsym]))
		if d > len(out) {
			return fmt.Errorf("%w: distance %d beyond output", ErrCorrupt, d)
		}
		start := len(out) - d
		if d >= length {
			out = append(out, out[start:start+length]...)
			continue
		}
		// An overlapping match repeats the last d bytes. Everything from
		// start on is already that repetition, so each copy can take all
		// of it: the chunk doubles until the match is done.
		for length > 0 {
			n := min(length, len(out)-start)
			out = append(out, out[start:start+n]...)
			length -= n
		}
	}
}
