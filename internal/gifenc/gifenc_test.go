package gifenc

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"math"
	"testing"
	"testing/quick"
)

// testImage builds a deterministic paletted image with icon-like content
// (flat regions plus some structure), similar to web GIFs.
func testImage(w, h, colors int, seed uint64) *Image {
	img := &Image{W: w, H: h, Palette: make([]Color, colors), Pixels: make([]byte, w*h)}
	for i := range img.Palette {
		img.Palette[i] = Color{byte(i * 37), byte(i * 91), byte(i * 53)}
	}
	s := seed
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Horizontal bands with occasional noise: compresses like a
			// typical banner/icon.
			c := (y / 4) % colors
			s = s*6364136223846793005 + 1442695040888963407
			if s>>60 == 0 {
				c = int(s>>32) % colors
			}
			img.Pixels[y*w+x] = byte(c)
		}
	}
	return img
}

// sameImage reports whether p, as the standard library decoded it, holds
// img's dimensions, pixels and palette.
func sameImage(p *image.Paletted, img *Image) bool {
	if p.Rect.Dx() != img.W || p.Rect.Dy() != img.H || !bytes.Equal(p.Pix, img.Pixels) || len(p.Palette) < len(img.Palette) {
		return false
	}
	for i, c := range img.Palette {
		if p.Palette[i] != (color.RGBA{c.R, c.G, c.B, 255}) {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct{ w, h, colors int }{
		{1, 1, 2}, {13, 7, 2}, {90, 30, 4}, {64, 64, 16}, {120, 40, 256},
	} {
		img := testImage(tc.w, tc.h, tc.colors, 9)
		data, err := Encode(img)
		if err != nil {
			t.Fatalf("%dx%d/%d: %v", tc.w, tc.h, tc.colors, err)
		}
		got, err := gif.DecodeAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%dx%d/%d: decode: %v", tc.w, tc.h, tc.colors, err)
		}
		if len(got.Image) != 1 || !sameImage(got.Image[0], img) {
			t.Fatalf("%dx%d/%d: round trip mismatch", tc.w, tc.h, tc.colors)
		}
	}
}

func TestStdlibCanDecodeOurGIF(t *testing.T) {
	img := testImage(90, 30, 4, 3)
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	std, err := gif.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stdlib rejected our GIF: %v", err)
	}
	b := std.Bounds()
	if b.Dx() != img.W || b.Dy() != img.H {
		t.Fatalf("stdlib sees %dx%d, want %dx%d", b.Dx(), b.Dy(), img.W, img.H)
	}
	pimg, ok := std.(*image.Paletted)
	if !ok {
		t.Fatalf("stdlib decoded %T, want paletted", std)
	}
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			if pimg.ColorIndexAt(x, y) != img.Pixels[y*img.W+x] {
				t.Fatalf("pixel (%d,%d) differs under stdlib decode", x, y)
			}
		}
	}
}

func TestAnimationRoundTrip(t *testing.T) {
	var frames []Frame
	for i := 0; i < 5; i++ {
		frames = append(frames, Frame{Image: testImage(32, 32, 8, uint64(i+1)), DelayCS: 10 * (i + 1)})
	}
	data, err := EncodeAnimation(frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gif.DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Image) != 5 {
		t.Fatalf("decoded %d frames, want 5", len(got.Image))
	}
	for i, f := range frames {
		if !sameImage(got.Image[i], f.Image) {
			t.Fatalf("frame %d differs", i)
		}
		if got.Delay[i] != f.DelayCS {
			t.Fatalf("frame %d delay %d, want %d", i, got.Delay[i], f.DelayCS)
		}
	}
}

func TestStdlibCanDecodeOurAnimation(t *testing.T) {
	frames := []Frame{
		{Image: testImage(16, 16, 4, 1), DelayCS: 5},
		{Image: testImage(16, 16, 4, 2), DelayCS: 5},
	}
	data, err := EncodeAnimation(frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	std, err := gif.DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stdlib rejected our animation: %v", err)
	}
	if len(std.Image) != 2 {
		t.Fatalf("stdlib sees %d frames, want 2", len(std.Image))
	}
	if std.LoopCount != 0 {
		t.Fatalf("loop count %d, want 0 (forever)", std.LoopCount)
	}
}

func TestValidateRejectsBadImages(t *testing.T) {
	cases := []*Image{
		{W: 0, H: 5, Palette: make([]Color, 2), Pixels: nil},
		{W: 2, H: 2, Palette: make([]Color, 1), Pixels: make([]byte, 4)},
		{W: 2, H: 2, Palette: make([]Color, 2), Pixels: make([]byte, 3)},
		{W: 2, H: 2, Palette: make([]Color, 2), Pixels: []byte{0, 0, 0, 9}},
	}
	for i, img := range cases {
		if err := img.Validate(); err == nil {
			t.Errorf("case %d: invalid image accepted", i)
		}
		if _, err := Encode(img); err == nil {
			t.Errorf("case %d: Encode accepted invalid image", i)
		}
	}
}

func TestFlatImageCompressesWell(t *testing.T) {
	// A 100x30 single-color banner: GIF should be far below raw size.
	img := &Image{W: 100, H: 30, Palette: []Color{{255, 255, 255}, {0, 0, 0}}, Pixels: make([]byte, 3000)}
	data, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 600 {
		t.Fatalf("flat 3000-pixel GIF is %d bytes, want well under raw", len(data))
	}
}

func TestEncodeAnimationRejectsMismatchedFrames(t *testing.T) {
	frames := []Frame{
		{Image: testImage(16, 16, 4, 1)},
		{Image: testImage(8, 8, 4, 2)},
	}
	if _, err := EncodeAnimation(frames, 0); err == nil {
		t.Fatal("mismatched frame sizes accepted")
	}
	if _, err := EncodeAnimation(nil, 0); err == nil {
		t.Fatal("empty animation accepted")
	}
	// Only the first frame's palette is written. A later frame with a
	// larger one would be coded with indices the global table lacks; one
	// of the same size but other colors would display wrongly.
	recolored := testImage(16, 16, 4, 2)
	recolored.Palette[1] = Color{1, 2, 3}
	for _, second := range []*Image{testImage(16, 16, 8, 2), recolored} {
		mismatched := []Frame{frames[0], {Image: second}}
		if _, err := EncodeAnimation(mismatched, 0); err == nil {
			t.Errorf("frame with a %d-color palette unlike the first's accepted", len(second.Palette))
		}
	}
}

// EncodedLen returns len(Encode(img)) and true when that length is below
// limit, and (limit, false) otherwise: a Sizer fed img's pixels in one
// piece. img must be an image Encode accepts; EncodedLen does not
// validate it.
func EncodedLen(img *Image, limit int) (int, bool) {
	s := NewSizer(len(img.Palette), limit)
	s.Image()
	s.Write(img.Pixels)
	return s.Len()
}

// EncodedAnimationLen is EncodedLen for EncodeAnimation(frames, loop),
// whose length does not depend on loop. The frames must be ones
// EncodeAnimation accepts.
func EncodedAnimationLen(frames []Frame, limit int) (int, bool) {
	s := NewAnimationSizer(len(frames[0].Image.Palette), len(frames), limit)
	for _, f := range frames {
		s.Image()
		if !s.Write(f.Image.Pixels) {
			break
		}
	}
	return s.Len()
}

// checkEncodedLen holds a length kernel to its contract — (want, true)
// exactly when want < limit, else (limit, false) — at limits around want,
// the length the encoder actually produced.
func checkEncodedLen(t *testing.T, what string, want int, size func(limit int) (int, bool)) {
	t.Helper()
	for _, limit := range []int{0, 1, want / 2, want - 1, want, want + 1, 2 * want, math.MaxInt} {
		n, ok := size(limit)
		if wantOK := want < limit; ok != wantOK || ok && n != want || !ok && n != limit {
			t.Errorf("%s: length at limit %d = (%d, %v); the encoder wrote %d bytes", what, limit, n, ok, want)
		}
	}
}

func TestEncodedLenMatchesEncode(t *testing.T) {
	for _, colors := range []int{2, 3, 4, 5, 16, 17, 64, 128, 255, 256} {
		// The larger images code to more than one 255-byte sub-block.
		for _, wh := range [][2]int{{1, 1}, {13, 7}, {90, 30}, {200, 150}} {
			img := testImage(wh[0], wh[1], colors, uint64(colors))
			data, err := Encode(img)
			if err != nil {
				t.Fatal(err)
			}
			checkEncodedLen(t, fmt.Sprintf("%dx%d/%d colors", wh[0], wh[1], colors), len(data),
				func(limit int) (int, bool) { return EncodedLen(img, limit) })
			// The same pixels a row at a time, as a drawing hands them over.
			checkEncodedLen(t, fmt.Sprintf("%dx%d/%d colors by rows", wh[0], wh[1], colors), len(data),
				func(limit int) (int, bool) {
					s := NewSizer(len(img.Palette), limit)
					s.Image()
					for y := 0; y < img.H; y++ {
						if !s.Write(img.Pixels[y*img.W : (y+1)*img.W]) {
							break
						}
					}
					return s.Len()
				})
		}
	}
	for _, colors := range []int{2, 32, 256} {
		for _, n := range []int{1, 2, 5} {
			var frames []Frame
			for i := 0; i < n; i++ {
				img := testImage(120, 40, colors, uint64(i+1))
				if i > 0 {
					img.Palette = frames[0].Image.Palette
				}
				frames = append(frames, Frame{Image: img, DelayCS: 15})
			}
			data, err := EncodeAnimation(frames, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkEncodedLen(t, fmt.Sprintf("%d frames/%d colors", n, colors), len(data),
				func(limit int) (int, bool) { return EncodedAnimationLen(frames, limit) })
		}
	}
}

// Property: any valid random image round-trips.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(wRaw, hRaw uint8, colRaw uint8, pix []byte) bool {
		w := int(wRaw)%40 + 1
		h := int(hRaw)%40 + 1
		colors := int(colRaw)%255 + 2
		img := &Image{W: w, H: h, Palette: make([]Color, colors), Pixels: make([]byte, w*h)}
		for i := range img.Palette {
			img.Palette[i] = Color{byte(i), byte(i * 2), byte(i * 3)}
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
		got, err := gif.Decode(bytes.NewReader(data))
		if err != nil {
			return false
		}
		p, ok := got.(*image.Paletted)
		return ok && sameImage(p, img)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
