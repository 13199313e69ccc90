package webgen

import "testing"

// BenchmarkMicroscape builds the site: 42 images, each sized by a
// binary search over drawing scales, plus the page.
func BenchmarkMicroscape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Microscape(Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRevise is one revision of the range experiment: about 30 %
// of the images synthesized afresh, and a new page.
func BenchmarkRevise(b *testing.B) {
	s, err := Microscape(Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Revise(0.3, 10001); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvertImages is the png experiment's batch conversion: 40
// PNGs and 2 MNGs.
func BenchmarkConvertImages(b *testing.B) {
	s, err := Microscape(Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ConvertImages(); err != nil {
			b.Fatal(err)
		}
	}
}
