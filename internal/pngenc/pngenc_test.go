package pngenc

import (
	"bytes"
	"hash/crc32"
	"image"
	stdpng "image/png"
	"testing"
	"testing/quick"
)

// testImage builds a deterministic paletted image with banner-like
// content.
func testImage(w, h, colors int, seed uint64) *Image {
	img := &Image{W: w, H: h, Palette: make([]Color, colors), Pixels: make([]byte, w*h)}
	for i := range img.Palette {
		img.Palette[i] = Color{byte(i * 41), byte(i * 13), byte(i * 89)}
	}
	s := seed
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := (x/8 + y/6) % colors
			s = s*6364136223846793005 + 1442695040888963407
			if s>>61 == 0 {
				c = int(s>>32) % colors
			}
			img.Pixels[y*w+x] = byte(c)
		}
	}
	return img
}

func TestCRC32MatchesStdlib(t *testing.T) {
	inputs := [][]byte{nil, {0}, []byte("IHDR"), bytes.Repeat([]byte("png!"), 1000)}
	for _, in := range inputs {
		if got, want := CRC32(in), crc32.ChecksumIEEE(in); got != want {
			t.Fatalf("CRC32(%d bytes) = %08x, want %08x", len(in), got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct{ w, h, colors int }{
		{1, 1, 2}, {7, 3, 2}, {31, 17, 4}, {64, 48, 16}, {90, 30, 200},
	} {
		img := testImage(tc.w, tc.h, tc.colors, 5)
		data, err := Encode(img)
		if err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
		got, err := decode(data)
		if err != nil {
			t.Fatalf("%v: decode: %v", tc, err)
		}
		if !sameImage(got, img) {
			t.Fatalf("%v: round trip mismatch", tc)
		}
	}
}

func TestStdlibCanDecodeOurPNG(t *testing.T) {
	for _, colors := range []int{2, 4, 16, 256} {
		img := testImage(60, 40, colors, 7)
		data, err := Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		std, err := stdpng.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("colors=%d: stdlib rejected our PNG: %v", colors, err)
		}
		pimg, ok := std.(*image.Paletted)
		if !ok {
			t.Fatalf("colors=%d: stdlib decoded %T, want paletted", colors, std)
		}
		if pimg.Bounds().Dx() != img.W || pimg.Bounds().Dy() != img.H {
			t.Fatalf("stdlib dimensions mismatch")
		}
		for y := 0; y < img.H; y++ {
			for x := 0; x < img.W; x++ {
				if pimg.ColorIndexAt(x, y) != img.Pixels[y*img.W+x] {
					t.Fatalf("colors=%d: pixel (%d,%d) differs under stdlib", colors, x, y)
				}
			}
		}
	}
}

func TestGammaChunkCosts16Bytes(t *testing.T) {
	// The paper: "the converted PNG and MNG files contain gamma
	// information ... this adds 16 bytes per image." Encode writes one
	// gAMA chunk; dropping it leaves a PNG 16 bytes shorter with the
	// same pixels.
	img := testImage(40, 20, 8, 1)
	with, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := chunks(with, pngSignature)
	if err != nil {
		t.Fatal(err)
	}
	without := append([]byte(nil), pngSignature...)
	gamma := 0
	for _, c := range cs {
		if c.typ == "gAMA" {
			gamma++
			continue
		}
		without = appendChunk(without, c.typ, c.data)
	}
	if gamma != 1 {
		t.Fatalf("%d gAMA chunks, want 1", gamma)
	}
	if len(with)-len(without) != 16 {
		t.Fatalf("gAMA chunk costs %d bytes, want 16", len(with)-len(without))
	}
	if got, err := decode(without); err != nil || !sameImage(got, img) {
		t.Fatalf("PNG without gAMA no longer decodes to the image (%v)", err)
	}
}

func TestLowBitDepthPacking(t *testing.T) {
	// 2 colors → 1 bit/pixel: a 64x64 bilevel image should be tiny.
	img := testImage(64, 64, 2, 3)
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 700 {
		t.Fatalf("bilevel 64x64 PNG is %d bytes; packing broken?", len(data))
	}
	got, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(got, img) {
		t.Fatal("bilevel round trip mismatch")
	}
}

func TestValidateRejectsBadImages(t *testing.T) {
	bad := []*Image{
		{W: 0, H: 1, Palette: make([]Color, 2), Pixels: nil},
		{W: 1, H: 1, Palette: nil, Pixels: []byte{0}},
		{W: 1, H: 1, Palette: make([]Color, 2), Pixels: []byte{5}},
		{W: 2, H: 2, Palette: make([]Color, 2), Pixels: []byte{0}},
	}
	for i, img := range bad {
		if _, err := Encode(img); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMNGRoundTrip(t *testing.T) {
	var frames []*Image
	delays := []int{10, 20, 30}
	for i := 0; i < 3; i++ {
		frames = append(frames, testImage(32, 24, 16, uint64(i+1)))
	}
	data, err := EncodeMNG(frames, delays)
	if err != nil {
		t.Fatal(err)
	}
	info, err := decodeMNG(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.w != 32 || info.h != 24 {
		t.Fatalf("MNG dims %dx%d", info.w, info.h)
	}
	if len(info.frames) != 3 {
		t.Fatalf("MNG frames = %d, want 3", len(info.frames))
	}
	for i := range frames {
		if !sameImage(info.frames[i], frames[i]) {
			t.Fatalf("frame %d pixels differ", i)
		}
		if info.delaysCS[i] != delays[i] {
			t.Fatalf("frame %d delay %d, want %d", i, info.delaysCS[i], delays[i])
		}
	}
}

func TestMNGValidation(t *testing.T) {
	frames := []*Image{testImage(8, 8, 4, 1), testImage(16, 16, 4, 2)}
	if _, err := EncodeMNG(frames, []int{1, 1}); err == nil {
		t.Fatal("mismatched frame sizes accepted")
	}
	if _, err := EncodeMNG(nil, nil); err == nil {
		t.Fatal("empty animation accepted")
	}
	if _, err := EncodeMNG(frames[:1], []int{1, 2}); err == nil {
		t.Fatal("delay count mismatch accepted")
	}
}

func TestMNGSharesPalette(t *testing.T) {
	// The per-frame savings: a 3-frame MNG must be well under 3x a
	// single-frame PNG of the same content, since PLTE and gAMA are not
	// repeated.
	frames := []*Image{}
	for i := 0; i < 3; i++ {
		frames = append(frames, testImage(48, 48, 256, uint64(i+10)))
	}
	mng, err := EncodeMNG(frames, []int{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Encode(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(mng) >= 3*len(single) {
		t.Fatalf("MNG %d bytes vs 3x single %d: no shared-palette saving", len(mng), 3*len(single))
	}
}

// Property: arbitrary valid images round-trip through PNG.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(wRaw, hRaw, colRaw uint8, pix []byte) bool {
		w := int(wRaw)%50 + 1
		h := int(hRaw)%50 + 1
		colors := int(colRaw)%255 + 2
		img := &Image{W: w, H: h, Palette: make([]Color, colors), Pixels: make([]byte, w*h)}
		for i := range img.Palette {
			img.Palette[i] = Color{byte(i), byte(255 - i), byte(i * 7)}
		}
		for i := range img.Pixels {
			v := 0
			if len(pix) > 0 {
				v = int(pix[i%len(pix)])
			}
			img.Pixels[i] = byte(v % colors)
		}
		data, err := Encode(img)
		if err != nil {
			return false
		}
		got, err := decode(data)
		return err == nil && sameImage(got, img)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
