package lzw

// ModemCompressor approximates ITU-T V.42bis (BTLZ) data compression as
// performed by 28.8k modems. It is an adaptive LZW coder over the byte
// stream with a persistent dictionary across packets — like a modem, which
// compresses the serial stream, not individual IP packets.
//
// Simplifications versus the full recommendation, which do not change the
// character of the comparison with deflate (documented in DESIGN.md):
//
//   - the dictionary freezes when full instead of recycling entries LRU;
//   - transparent-mode fallback is modeled per packet: a packet never
//     costs more than its raw size plus one escape byte.
//
// It satisfies the netem.StreamCompressor interface structurally.
type ModemCompressor struct {
	// table is the dictionary, open-addressed: a slot holds key<<32|code
	// for key = prefix<<8|byte, or 0 when empty (no code is 0). It has at
	// least four slots per codeword, so a probe rarely goes past one.
	table []uint64
	shift uint // 64 - log2(len(table)): the hash keeps the top bits
	next  int
	width uint
	cur   int // current prefix code, -1 when none

	dictSize int
}

// DefaultModemDictSize is the V.42bis default total number of codewords
// (parameter N2).
const DefaultModemDictSize = 2048

// NewModemCompressor returns a compressor with the default dictionary
// size.
func NewModemCompressor() *ModemCompressor {
	return NewModemCompressorSize(DefaultModemDictSize)
}

// NewModemCompressorSize returns a compressor with the given dictionary
// size (number of codewords, ≥ 512).
func NewModemCompressorSize(dictSize int) *ModemCompressor {
	if dictSize < 512 {
		dictSize = 512
	}
	m := &ModemCompressor{dictSize: dictSize, shift: 64}
	for 1<<(64-m.shift) < 4*dictSize {
		m.shift--
	}
	m.table = make([]uint64, 1<<(64-m.shift))
	m.Reset()
	return m
}

// Reset clears the dictionary, as on modem retrain.
func (m *ModemCompressor) Reset() {
	clear(m.table)
	m.next = 259 // V.42bis: codes 0..255 literals, 256..258 control
	m.width = 9
	m.cur = -1
}

// CompressedBits consumes p as the next span of the stream and returns
// the number of bits the modem would put on the wire for it.
func (m *ModemCompressor) CompressedBits(p []byte) int {
	bits := 0
	mask := uint64(len(m.table) - 1)
	for _, b := range p {
		if m.cur < 0 {
			m.cur = int(b)
			continue
		}
		key := uint64(m.cur)<<8 | uint64(b)
		i := key * 0x9e3779b97f4a7c15 >> m.shift
		e := m.table[i]
		for e != 0 && e>>32 != key {
			i = (i + 1) & mask
			e = m.table[i]
		}
		if e != 0 {
			m.cur = int(uint32(e))
			continue
		}
		bits += int(m.width)
		if m.next < m.dictSize {
			m.table[i] = key<<32 | uint64(m.next)
			m.next++
			if m.next > 1<<m.width && m.next <= m.dictSize {
				m.width++
			}
		}
		m.cur = int(b)
	}
	// Account for the pending prefix: it will cost one code eventually;
	// attribute it to this packet so per-packet timing is conservative.
	if m.cur >= 0 {
		bits += int(m.width)
		// The prefix remains pending for the next packet; we counted its
		// emission, so restart matching from scratch.
		m.cur = -1
	}
	// Transparent-mode fallback: never worse than raw plus an escape.
	raw := 8*len(p) + 8
	if bits > raw {
		return raw
	}
	return bits
}
