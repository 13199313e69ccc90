package lzw

import (
	"strings"
	"testing"
)

var benchData = []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 400))

func BenchmarkCompress(b *testing.B) {
	b.SetBytes(int64(len(benchData)))
	for i := 0; i < b.N; i++ {
		Compress(benchData, 8)
	}
}

func BenchmarkModemCompressor(b *testing.B) {
	m := NewModemCompressor()
	b.SetBytes(int64(len(benchData)))
	for i := 0; i < b.N; i++ {
		m.CompressedBits(benchData)
	}
}
