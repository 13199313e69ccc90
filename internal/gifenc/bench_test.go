package gifenc

import "testing"

func BenchmarkEncode(b *testing.B) {
	img := testImage(160, 120, 64, 5)
	b.SetBytes(int64(len(img.Pixels)))
	for i := 0; i < b.N; i++ {
		if _, err := Encode(img); err != nil {
			b.Fatal(err)
		}
	}
}
