package lzw

import (
	"bytes"
	"math/rand"
	"testing"
)

// flatModem is the reference for ModemCompressor: the coder as first
// written, whose dictionary is a flat array indexed by prefix<<8|byte and
// reallocated on every Reset.
type flatModem struct {
	dict     []int32 // (prefix<<8|byte) -> code+1; 0 = empty
	next     int
	width    uint
	cur      int
	dictSize int
}

func newFlatModem(dictSize int) *flatModem {
	m := &flatModem{dictSize: max(dictSize, 512)}
	m.Reset()
	return m
}

func (m *flatModem) Reset() {
	m.dict = make([]int32, m.dictSize<<8)
	m.next = 259
	m.width = 9
	m.cur = -1
}

func (m *flatModem) CompressedBits(p []byte) int {
	bits := 0
	for _, b := range p {
		if m.cur < 0 {
			m.cur = int(b)
			continue
		}
		key := m.cur<<8 | int(b)
		if code := m.dict[key]; code != 0 {
			m.cur = int(code) - 1
			continue
		}
		bits += int(m.width)
		if m.next < m.dictSize {
			m.dict[key] = int32(m.next) + 1
			m.next++
			if m.next > 1<<m.width && m.next <= m.dictSize {
				m.width++
			}
		}
		m.cur = int(b)
	}
	if m.cur >= 0 {
		bits += int(m.width)
		m.cur = -1
	}
	if raw := 8*len(p) + 8; bits > raw {
		return raw
	}
	return bits
}

// checkModemMatchesFlat feeds stream to both coders in packets whose
// lengths script gives, one script byte per packet (the low seven bits
// plus one; a set high bit resets both coders first), and requires the
// same bit count for every packet.
func checkModemMatchesFlat(t *testing.T, stream, script []byte, dictSize int) {
	t.Helper()
	got, want := NewModemCompressorSize(dictSize), newFlatModem(dictSize)
	if len(script) == 0 {
		script = []byte{0x7f}
	}
	for k := 0; len(stream) > 0; k++ {
		s := script[k%len(script)]
		if s&0x80 != 0 {
			got.Reset()
			want.Reset()
		}
		n := min(int(s&0x7f)+1, len(stream))
		if g, w := got.CompressedBits(stream[:n]), want.CompressedBits(stream[:n]); g != w {
			t.Fatalf("dict %d, packet %d (%d bytes): %d bits, the flat coder gives %d", dictSize, k, n, g, w)
		}
		stream = stream[n:]
	}
}

// modemStream is n bytes over an alphabet of the given size, in runs, so
// the dictionary fills and freezes within a few kilobytes.
func modemStream(r *rand.Rand, n, alphabet int) []byte {
	b := make([]byte, 0, n)
	for len(b) < n {
		b = append(b, bytes.Repeat([]byte{byte(r.Intn(alphabet))}, 1+r.Intn(4))...)
	}
	return b[:n]
}

func TestModemMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	// Packets of 1 to 128 bytes, with a reset before every sixteenth.
	script := make([]byte, 64)
	for i := range script {
		script[i] = byte(r.Intn(128))
		if i%16 == 15 {
			script[i] |= 0x80
		}
	}
	for _, dictSize := range []int{0, 512, 700, DefaultModemDictSize, 4096} {
		for _, alphabet := range []int{2, 16, 256} {
			checkModemMatchesFlat(t, modemStream(r, 60_000, alphabet), script, dictSize)
		}
		checkModemMatchesFlat(t, corpora["text"], nil, dictSize)
		checkModemMatchesFlat(t, corpora["random"], []byte{0x7f, 0x80}, dictSize)
	}
}

// FuzzModemMatchesFlat holds the hashed dictionary to the flat one on
// arbitrary streams, packet cuts, resets and dictionary sizes.
func FuzzModemMatchesFlat(f *testing.F) {
	f.Add([]byte("TOBEORNOTTOBEORTOBEORNOT"), []byte{3, 0x85, 7}, uint16(0))
	f.Add(bytes.Repeat([]byte("abcab"), 2000), []byte{0x7f}, uint16(1536))
	f.Add(modemStream(rand.New(rand.NewSource(4)), 20_000, 8), []byte{40, 0x90, 127}, uint16(100))
	f.Fuzz(func(t *testing.T, stream, script []byte, dictSize uint16) {
		checkModemMatchesFlat(t, stream, script, 512+int(dictSize)%4096)
	})
}
