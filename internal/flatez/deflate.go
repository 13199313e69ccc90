package flatez

import (
	"encoding/binary"
	"math/bits"
)

const (
	windowSize = 32768
	minMatch   = 3
	maxMatch   = 258
	hashBits   = 15
	hashSize   = 1 << hashBits
	hashMask   = hashSize - 1
)

// token is one LZ77 event: a literal byte (dist == 0) or a back-reference.
type token struct {
	lit    byte
	length int
	dist   int
}

// matcherParams tunes LZ77 effort per compression level.
type matcherParams struct {
	maxChain int
	nice     int
	lazy     bool
}

func levelParams(level int) matcherParams {
	switch {
	case level <= 1:
		return matcherParams{maxChain: 8, nice: 16, lazy: false}
	case level <= 3:
		return matcherParams{maxChain: 32, nice: 64, lazy: false}
	case level <= 6:
		return matcherParams{maxChain: 128, nice: 128, lazy: true}
	default:
		return matcherParams{maxChain: 1024, nice: 258, lazy: true}
	}
}

// Compress deflates data at the default level (6).
func Compress(data []byte) []byte { return CompressLevel(data, 6) }

// CompressLevel deflates data at the given level (1 = fastest, 9 = best).
func CompressLevel(data []byte, level int) []byte {
	return CompressDict(data, nil, level)
}

// CompressDict deflates data with a preset dictionary: back-references may
// reach into dict, which the decoder must supply via DecompressDict. This
// implements the paper's future-work idea of compression dictionaries
// optimized for HTML/CSS text.
func CompressDict(data, dict []byte, level int) []byte {
	if len(dict) > windowSize {
		dict = dict[len(dict)-windowSize:]
	}
	tokens := lz77(data, dict, levelParams(level))
	var w bitWriter
	emitBlock(&w, tokens, data, true)
	return w.bytes()
}

func hash3(p []byte) uint32 {
	return (uint32(p[0])<<10 ^ uint32(p[1])<<5 ^ uint32(p[2])) & hashMask
}

// lz77 tokenizes data using hash-chain matching with optional one-step
// lazy evaluation; dict is virtually prepended as match history.
func lz77(data, dict []byte, p matcherParams) []token {
	buf := make([]byte, 0, len(dict)+len(data))
	buf = append(buf, dict...)
	buf = append(buf, data...)
	start := len(dict)

	head := make([]int32, hashSize)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(buf))
	insert := func(pos int) {
		if pos+minMatch > len(buf) {
			return
		}
		h := hash3(buf[pos:])
		prev[pos] = head[h]
		head[h] = int32(pos)
	}
	// Seed the dictionary into the hash chains.
	for i := 0; i < start; i++ {
		insert(i)
	}

	// matchLen is the length of the common prefix of buf[a:] and
	// buf[b:], a < b, up to max bytes, compared a word at a time.
	matchLen := func(a, b, max int) int {
		n := 0
		for ; n+8 <= max; n += 8 {
			if x := binary.LittleEndian.Uint64(buf[a+n:]) ^ binary.LittleEndian.Uint64(buf[b+n:]); x != 0 {
				return n + bits.TrailingZeros64(x)/8
			}
		}
		for n < max && buf[a+n] == buf[b+n] {
			n++
		}
		return n
	}
	// findFrom walks a hash chain looking for the best match for pos:
	// the longest, and the nearest of equals. A candidate whose byte at
	// the best length so far differs cannot be longer and is passed
	// over, and once the best reaches the longest a match can be the walk
	// stops; neither changes the match found.
	findFrom := func(cand int32, pos int) (length, dist int) {
		limit := pos - windowSize
		longest := min(len(buf)-pos, maxMatch)
		chain := p.maxChain
		for cand >= 0 && int(cand) > limit && chain > 0 && length < longest {
			if c := int(cand); buf[c+length] == buf[pos+length] {
				if l := matchLen(c, pos, longest); l > length {
					length = l
					dist = pos - c
					if l >= p.nice {
						break
					}
				}
			}
			cand = prev[cand]
			chain--
		}
		return length, dist
	}
	find := func(pos int) (int, int) {
		if pos+minMatch > len(buf) {
			return 0, 0
		}
		h := hash3(buf[pos:])
		return findFrom(head[h], pos)
	}

	tokens := make([]token, 0, len(data)/3+16)
	i := start
	for i < len(buf) {
		insert(i)
		var l1, d1 int
		if i+minMatch <= len(buf) {
			l1, d1 = findFrom(prev[i], i)
		}
		if l1 >= minMatch && p.lazy && i+1+minMatch <= len(buf) {
			if l2, _ := find(i + 1); l2 > l1 {
				tokens = append(tokens, token{lit: buf[i]})
				i++
				continue
			}
		}
		if l1 >= minMatch {
			tokens = append(tokens, token{length: l1, dist: d1})
			for j := i + 1; j < i+l1; j++ {
				insert(j)
			}
			i += l1
		} else {
			tokens = append(tokens, token{lit: buf[i]})
			i++
		}
	}
	return tokens
}

// clSym is one symbol of the RLE-coded code-length stream.
type clSym struct {
	sym       int
	extra     uint32
	extraBits uint
}

// rleEncode compresses a code-length sequence with the 16/17/18 repeat
// codes (RFC 1951 §3.2.7).
func rleEncode(lens []uint8) []clSym {
	var out []clSym
	i := 0
	for i < len(lens) {
		v := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == v {
			run++
		}
		if v == 0 {
			n := run
			for n >= 11 {
				r := n
				if r > 138 {
					r = 138
				}
				out = append(out, clSym{sym: 18, extra: uint32(r - 11), extraBits: 7})
				n -= r
			}
			if n >= 3 {
				out = append(out, clSym{sym: 17, extra: uint32(n - 3), extraBits: 3})
				n = 0
			}
			for ; n > 0; n-- {
				out = append(out, clSym{sym: 0})
			}
		} else {
			out = append(out, clSym{sym: int(v)})
			n := run - 1
			for n >= 3 {
				r := n
				if r > 6 {
					r = 6
				}
				out = append(out, clSym{sym: 16, extra: uint32(r - 3), extraBits: 2})
				n -= r
			}
			for ; n > 0; n-- {
				out = append(out, clSym{sym: int(v)})
			}
		}
		i += run
	}
	return out
}

// emitBlock writes tokens as whichever of stored/fixed/dynamic is smallest.
func emitBlock(w *bitWriter, tokens []token, data []byte, final bool) {
	// Frequencies, always counting the end-of-block symbol.
	litFreq := make([]int64, 286)
	distFreq := make([]int64, 30)
	litFreq[256]++
	for _, t := range tokens {
		if t.dist == 0 {
			litFreq[t.lit]++
		} else {
			litFreq[257+lengthCode(t.length)]++
			distFreq[distCode(t.dist)]++
		}
	}
	litLens := buildLengths(litFreq, maxCodeBits)
	distLens := buildLengths(distFreq, maxCodeBits)
	distUsed := false
	for _, l := range distLens {
		if l > 0 {
			distUsed = true
			break
		}
	}
	if !distUsed {
		// One dist code of one bit: RFC-sanctioned incomplete code.
		distLens[0] = 1
	}

	nlit := 257
	for i := len(litLens) - 1; i >= 257; i-- {
		if litLens[i] > 0 {
			nlit = i + 1
			break
		}
	}
	ndist := 1
	for i := len(distLens) - 1; i >= 1; i-- {
		if distLens[i] > 0 {
			ndist = i + 1
			break
		}
	}

	all := make([]uint8, 0, nlit+ndist)
	all = append(all, litLens[:nlit]...)
	all = append(all, distLens[:ndist]...)
	rle := rleEncode(all)

	clFreq := make([]int64, 19)
	for _, s := range rle {
		clFreq[s.sym]++
	}
	clLens := buildLengths(clFreq, maxCLBits)
	hclen := 4
	for i := len(clOrder) - 1; i >= 4; i-- {
		if clLens[clOrder[i]] > 0 {
			hclen = i + 1
			break
		}
	}

	// Cost comparison (in bits).
	tokenCost := func(lits, dists []uint8) int {
		cost := int(lits[256])
		for _, t := range tokens {
			if t.dist == 0 {
				cost += int(lits[t.lit])
			} else {
				lc := lengthCode(t.length)
				cost += int(lits[257+lc]) + int(lengthExtra[lc])
				dc := distCode(t.dist)
				cost += int(dists[dc]) + int(distExtra[dc])
			}
		}
		return cost
	}
	dynHeader := 3 + 5 + 5 + 4 + 3*hclen
	for _, s := range rle {
		dynHeader += int(clLens[s.sym]) + int(s.extraBits)
	}
	dynCost := dynHeader + tokenCost(litLens, distLens)
	fixedLit, fixedDist := fixedLitLens(), fixedDistLens()
	fixedCost := 3 + tokenCost(fixedLit, fixedDist)
	storedBlocks := len(data)/65535 + 1
	storedCost := storedBlocks*(3+7+32) + 8*len(data) // align worst case

	switch {
	case storedCost < dynCost && storedCost < fixedCost:
		emitStored(w, data, final)
	case fixedCost <= dynCost:
		emitCoded(w, tokens, fixedLit, fixedDist, 1, final)
	default:
		w.writeBits(boolBit(final), 1)
		w.writeBits(2, 2) // BTYPE=10 dynamic
		w.writeBits(uint32(nlit-257), 5)
		w.writeBits(uint32(ndist-1), 5)
		w.writeBits(uint32(hclen-4), 4)
		for i := 0; i < hclen; i++ {
			w.writeBits(uint32(clLens[clOrder[i]]), 3)
		}
		clCodes := canonicalCodes(clLens)
		for _, s := range rle {
			w.writeCode(clCodes[s.sym], uint(clLens[s.sym]))
			if s.extraBits > 0 {
				w.writeBits(s.extra, s.extraBits)
			}
		}
		writeTokens(w, tokens, litLens, distLens)
	}
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// emitCoded writes a fixed-Huffman block (btype must be 1).
func emitCoded(w *bitWriter, tokens []token, litLens, distLens []uint8, btype uint32, final bool) {
	w.writeBits(boolBit(final), 1)
	w.writeBits(btype, 2)
	writeTokens(w, tokens, litLens, distLens)
}

func writeTokens(w *bitWriter, tokens []token, litLens, distLens []uint8) {
	litCodes := canonicalCodes(litLens)
	distCodes := canonicalCodes(distLens)
	for _, t := range tokens {
		if t.dist == 0 {
			w.writeCode(litCodes[t.lit], uint(litLens[t.lit]))
			continue
		}
		lc := lengthCode(t.length)
		sym := 257 + lc
		w.writeCode(litCodes[sym], uint(litLens[sym]))
		if lengthExtra[lc] > 0 {
			w.writeBits(uint32(t.length-lengthBase[lc]), lengthExtra[lc])
		}
		dc := distCode(t.dist)
		w.writeCode(distCodes[dc], uint(distLens[dc]))
		if distExtra[dc] > 0 {
			w.writeBits(uint32(t.dist-distBase[dc]), distExtra[dc])
		}
	}
	w.writeCode(litCodes[256], uint(litLens[256])) // end of block
}

// emitStored writes data as stored (uncompressed) blocks.
func emitStored(w *bitWriter, data []byte, final bool) {
	for first := true; first || len(data) > 0; first = false {
		n := len(data)
		if n > 65535 {
			n = 65535
		}
		last := final && n == len(data)
		w.writeBits(boolBit(last), 1)
		w.writeBits(0, 2)
		w.alignByte()
		w.out = append(w.out, byte(n), byte(n>>8), byte(^n), byte(^n>>8))
		w.out = append(w.out, data[:n]...)
		data = data[n:]
		if len(data) == 0 {
			break
		}
	}
}
