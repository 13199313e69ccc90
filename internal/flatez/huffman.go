package flatez

import (
	"fmt"
	"sort"
)

// maxCodeBits is the DEFLATE limit for literal/length and distance codes.
const maxCodeBits = 15

// maxCLBits is the limit for the code-length alphabet.
const maxCLBits = 7

// buildLengths computes optimal length-limited Huffman code lengths for
// the given symbol frequencies using the package-merge algorithm
// (Larmore–Hirschberg). Symbols with zero frequency get length zero. For
// two or more active symbols the result is a complete prefix code (Kraft
// sum exactly one), which DEFLATE decoders require of the literal/length
// code; a single active symbol gets length 1.
func buildLengths(freq []int64, maxBits int) []uint8 {
	lens := make([]uint8, len(freq))
	var active []int
	for i, f := range freq {
		if f > 0 {
			active = append(active, i)
		}
	}
	switch len(active) {
	case 0:
		return lens
	case 1:
		lens[active[0]] = 1
		return lens
	}
	if 1<<uint(maxBits) < len(active) {
		panic(fmt.Sprintf("flatez: %d symbols cannot fit in %d-bit codes", len(active), maxBits))
	}

	type pmNode struct {
		w           int64
		leaf        int // symbol index, or -1 for a package
		left, right *pmNode
	}
	leaves := make([]*pmNode, len(active))
	for i, s := range active {
		leaves[i] = &pmNode{w: freq[s], leaf: s}
	}
	sort.SliceStable(leaves, func(i, j int) bool {
		if leaves[i].w != leaves[j].w {
			return leaves[i].w < leaves[j].w
		}
		return leaves[i].leaf < leaves[j].leaf
	})

	merge := func(packaged []*pmNode) []*pmNode {
		out := make([]*pmNode, 0, len(leaves)+len(packaged))
		i, j := 0, 0
		for i < len(leaves) || j < len(packaged) {
			// Leaves win ties for determinism.
			if j >= len(packaged) || (i < len(leaves) && leaves[i].w <= packaged[j].w) {
				out = append(out, leaves[i])
				i++
			} else {
				out = append(out, packaged[j])
				j++
			}
		}
		return out
	}

	prev := leaves
	for level := 1; level < maxBits; level++ {
		var packaged []*pmNode
		for i := 0; i+1 < len(prev); i += 2 {
			packaged = append(packaged, &pmNode{
				w: prev[i].w + prev[i+1].w, leaf: -1,
				left: prev[i], right: prev[i+1],
			})
		}
		prev = merge(packaged)
	}

	// The optimal solution takes the first 2n-2 items; each inclusion of a
	// symbol's leaf adds one bit to its code length.
	var count func(n *pmNode)
	count = func(n *pmNode) {
		if n.leaf >= 0 {
			lens[n.leaf]++
			return
		}
		count(n.left)
		count(n.right)
	}
	for _, n := range prev[:2*len(active)-2] {
		count(n)
	}
	return lens
}

// canonicalCodes assigns canonical Huffman codes (RFC 1951 §3.2.2) from
// code lengths. codes[i] is valid only where lens[i] > 0.
func canonicalCodes(lens []uint8) []uint32 {
	maxLen := 0
	blCount := make([]int, maxCodeBits+1)
	for _, l := range lens {
		if int(l) > maxLen {
			maxLen = int(l)
		}
		if l > 0 {
			blCount[l]++
		}
	}
	nextCode := make([]uint32, maxLen+2)
	code := uint32(0)
	for bits := 1; bits <= maxLen; bits++ {
		code = (code + uint32(blCount[bits-1])) << 1
		nextCode[bits] = code
	}
	codes := make([]uint32, len(lens))
	for i, l := range lens {
		if l > 0 {
			codes[i] = nextCode[l]
			nextCode[l]++
		}
	}
	return codes
}

// Decoding tables. A code is looked up by the next rootBits bits of the
// stream (LSB-first, so a code's first bit is bit 0 of the index). A code
// of at most rootBits bits fills every root entry that starts with it. The
// root entry of a longer code's first rootBits bits links to a sub-table
// indexed by the bits after them, as wide as the longest code sharing
// that prefix, so every code resolves in at most two lookups.
//
// An entry packs a value in its high 16 bits, the entryLink flag, and n
// in its low 4 bits. A leaf's value is the symbol and n (1..15) the whole
// code's length; a link's value is the sub-table's offset and n its index
// width. Zero is an unassigned pattern of an incomplete code.
const (
	rootBits  = 9
	rootSize  = 1 << rootBits
	rootMask  = rootSize - 1
	entryLink = 1 << 4
	entryLen  = 1<<4 - 1
)

// tableSize bounds the entries of any table, root and sub-tables. In
// units of 15-bit code space a root prefix spans 64 units. Canonical
// codes fill the space in order of length, so the c_L codes of one length
// L > rootBits form one run of c_L·2^(15-L) units. The prefixes whose
// longest code has length L all meet that run, so there are at most
// c_L·2^(15-L)/64 + 2 of them, each with a 2^(L-9)-entry sub-table:
// c_L + 2^(L-8) entries. Summed over L = 10..15 that is at most the
// number of symbols (288 for the fixed literal code) plus 252.
const tableSize = rootSize + 288 + 252

// huffTable decodes one canonical Huffman code.
type huffTable [tableSize]uint32

// build fills t for the code with the given lengths. It rejects
// over-subscribed codes; incomplete ones are accepted, their unassigned
// patterns left as zero entries that decode to ErrCorrupt only when met,
// as DEFLATE allows for a distance code with a single symbol.
func (t *huffTable) build(lens []uint8) error {
	var count [maxCodeBits + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left := 1
	for l := 1; l <= maxCodeBits; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return fmt.Errorf("%w: over-subscribed huffman code", ErrCorrupt)
		}
	}
	// first[l] is the first canonical code of length l (RFC 1951 §3.2.2).
	var first [maxCodeBits + 1]uint32
	for l, code := 1, uint32(0); l <= maxCodeBits; l++ {
		code = (code + uint32(count[l-1])) << 1
		first[l] = code
	}

	// Size each long prefix's sub-table by its longest code, then lay the
	// sub-tables out after the root.
	clear(t[:rootSize])
	var subLen [rootSize]uint8
	next := first
	for _, l := range lens {
		if l > rootBits {
			p := reverseBits(next[l], uint(l)) & rootMask
			subLen[p] = max(subLen[p], l-rootBits)
			next[l]++
		}
	}
	off := uint32(rootSize)
	for p, n := range subLen {
		if n > 0 {
			t[p] = off<<16 | entryLink | uint32(n)
			clear(t[off : off+1<<n])
			off += 1 << n
		}
	}

	next = first
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		code := reverseBits(next[l], uint(l))
		next[l]++
		leaf := uint32(sym)<<16 | uint32(l)
		if l <= rootBits {
			for i := code; i < rootSize; i += 1 << l {
				t[i] = leaf
			}
			continue
		}
		link := t[code&rootMask]
		sub := t[link>>16 : link>>16+1<<(link&entryLen)]
		for i := code >> rootBits; i < uint32(len(sub)); i += 1 << (l - rootBits) {
			sub[i] = leaf
		}
	}
	return nil
}

// entry returns the entry for the code at the bottom of acc, which must
// hold at least as many valid bits as the code is long.
func (t *huffTable) entry(acc uint64) uint32 {
	e := t[acc&rootMask]
	if e&entryLink != 0 {
		e = t[e>>16+uint32(acc>>rootBits)&(1<<(e&entryLen)-1)]
	}
	return e
}
