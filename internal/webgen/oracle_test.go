package webgen

import (
	"bytes"
	"testing"

	"repro/internal/gifenc"
	"repro/internal/sim"
)

// oracleGIF is the reference for Synthesize: the search as first written,
// which renders and fully encodes every probe and keeps the encoding
// nearest the target (the earliest on a tie).
func oracleGIF(spec Spec, seed uint64) ([]byte, error) {
	hi := 600
	encode := func(scale int) ([]byte, error) { return gifenc.Encode(renderStatic(spec, scale, seed)) }
	if spec.Role == RoleAnimation {
		hi = 400
		encode = func(scale int) ([]byte, error) {
			return gifenc.EncodeAnimation(renderAnimation(spec, scale, seed, animationFrames), 0)
		}
	}
	var best []byte
	bestErr := 1 << 30
	for lo := 1; lo <= hi; {
		mid := (lo + hi) / 2
		data, err := encode(mid)
		if err != nil {
			return nil, err
		}
		if d := abs(len(data) - spec.Target); d < bestErr {
			bestErr = d
			best = data
		}
		if len(data) < spec.Target {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best, nil
}

// checkAgainstOracle requires img to be the image the oracle search
// synthesizes for its spec at seed, byte for byte.
func checkAgainstOracle(t *testing.T, img *SynthImage, seed uint64) {
	t.Helper()
	want, err := oracleGIF(img.Spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.GIF, want) {
		t.Errorf("%s (%v, target %d) at seed %d: %d bytes, the oracle's search gives %d",
			img.Spec.Name, img.Spec.Role, img.Spec.Target, seed, len(img.GIF), len(want))
	}
}

// Sizing probes against a cap instead of encoding them changes no image:
// every GIF the site, its revisions and synthesis at other targets
// produce is the one the full-encode search produces.
func TestSynthesizeMatchesOracle(t *testing.T) {
	s := site(t)
	t.Run("site", func(t *testing.T) {
		for _, img := range s.Images {
			checkAgainstOracle(t, img, 1)
		}
		for _, spec := range MicroscapeSpecs() {
			img, err := Synthesize(spec, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, img, 2)
		}
	})
	// The fresh images of a revision, at the seeds the range experiment's
	// first three repetitions revise with.
	t.Run("revisions", func(t *testing.T) {
		for _, seed := range []uint64{10001, 10014, 10027} {
			revised, err := s.Revise(0.3, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, img := range revised.Images {
				if img != s.Images[i] {
					checkAgainstOracle(t, img, seed+uint64(i)*977+13)
				}
			}
		}
	})
	// Every role over a target ladder. The smallest targets lie below half
	// the header of the larger palettes, so every probe is capped and the
	// search takes its fallback.
	t.Run("ladder", func(t *testing.T) {
		for role := RoleSpacer; role <= RoleAnimation; role++ {
			for _, target := range []int{20, 150, 1000, 6000} {
				spec := Spec{Name: "ladder.gif", Role: role, Target: target}
				img, err := Synthesize(spec, 3)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, img, 3)
			}
		}
	})
}

// oracleRenderStatic, oracleDrawGlyph and oracleRenderAnimation are the
// reference for the renderers: the drawing code as first written, one
// pixel at a time with every division in the inner loop.
func oracleRenderStatic(spec Spec, scale int, seed uint64) *gifenc.Image {
	rng := sim.NewRand(seed ^ nameHash(spec.Name) ^ uint64(scale)<<48)
	switch spec.Role {
	case RoleSpacer:
		// Thin rules and spacers: mostly flat with dithered edges, so
		// size grows steadily with width.
		w := 4 * scale
		img := newImage(w, 2, 2)
		for i := range img.Pixels {
			if rng.Intn(3) == 0 {
				img.Pixels[i] = 1
			}
		}
		return img
	case RoleBullet:
		// Small disc/arrow glyphs with a little anti-aliasing noise.
		s := 4 + scale/2
		img := newImage(s, s, 4)
		cx, cy := s/2, s/2
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				dx, dy := x-cx, y-cy
				switch {
				case dx*dx+dy*dy < (s*s)/9:
					img.Pixels[y*s+x] = 1
				case dx*dx+dy*dy < (s*s)/6:
					img.Pixels[y*s+x] = 2
				}
				if rng.Intn(24) == 0 {
					img.Pixels[y*s+x] = byte(rng.Intn(4))
				}
			}
		}
		return img
	case RoleBanner:
		// Wide text-as-image: blocky glyph pattern on a flat background,
		// like the paper's "solutions" banner.
		w, h := 6*scale, 2+scale/2
		if h < 8 {
			h = 8
		}
		img := newImage(w, h, 4)
		// Background color 1 (the #FC0 of Figure 1), glyph color 0.
		for i := range img.Pixels {
			img.Pixels[i] = 1
		}
		x := h / 2
		for x+h/2 < w*2/3 {
			glyphW := h/2 + rng.Intn(h/2+1)
			oracleDrawGlyph(img, x, h/4, glyphW, h/2, rng)
			x += glyphW + h/4
		}
		return img
	case RoleIcon:
		// Structured art with moderate noise.
		s := 4 + scale
		img := newImage(s, s, 16)
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				c := (x/3 + y/3) % 8
				if rng.Intn(6) == 0 {
					c = 8 + rng.Intn(8)
				}
				img.Pixels[y*s+x] = byte(c)
			}
		}
		return img
	case RolePhoto:
		// High-entropy dithered content: compresses poorly, like
		// photographic GIFs.
		w := 5 * scale / 2
		h := 3 * scale / 2
		if w < 4 {
			w = 4
		}
		if h < 4 {
			h = 4
		}
		img := newImage(w, h, 128)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				base := (x*255/w + y*255/h) / 4
				img.Pixels[y*w+x] = byte((base + rng.Intn(96)) % 128)
			}
		}
		return img
	default:
		panic("webgen: renderStatic on animation spec")
	}
}

func newImage(w, h, colors int) *gifenc.Image {
	return &gifenc.Image{W: w, H: h, Palette: newPalette(colors), Pixels: make([]byte, w*h)}
}

func oracleDrawGlyph(img *gifenc.Image, x0, y0, w, h int, rng *sim.Rand) {
	kind := rng.Intn(4)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			px, py := x0+x, y0+y
			if px >= img.W || py >= img.H {
				continue
			}
			var on bool
			switch kind {
			case 0: // vertical bars
				on = x < w/4 || x >= w-w/4
			case 1: // ring
				on = x < w/4 || x >= w-w/4 || y < h/4 || y >= h-h/4
			case 2: // diagonal
				on = abs(x*h-y*w) < h*w/4
			default: // horizontal bars
				on = y < h/4 || (y >= h/2-h/8 && y < h/2+h/8)
			}
			if on {
				img.Pixels[py*img.W+px] = 0
			}
		}
	}
}

func oracleRenderAnimation(spec Spec, scale int, seed uint64, nFrames int) []gifenc.Frame {
	w, h := 4*scale, scale
	if h < 8 {
		h = 8
	}
	rng := sim.NewRand(seed ^ nameHash(spec.Name) ^ 0xA11A)
	base := newImage(w, h, 32)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := (x/4 + y/4) % 12
			if rng.Intn(5) == 0 {
				c = 12 + rng.Intn(20)
			}
			base.Pixels[y*w+x] = byte(c)
		}
	}
	var frames []gifenc.Frame
	for f := 0; f < nFrames; f++ {
		img := &gifenc.Image{W: w, H: h, Palette: base.Palette, Pixels: append([]byte(nil), base.Pixels...)}
		// The moving highlight band plus a little per-frame sparkle, so
		// consecutive frames are similar but not identical.
		x0 := f * w / nFrames
		for y := 0; y < h; y++ {
			for x := x0; x < x0+w/8 && x < w; x++ {
				img.Pixels[y*w+x] = byte(20 + (x+y)%12)
			}
		}
		for i := range img.Pixels {
			if rng.Intn(160) == 0 {
				img.Pixels[i] = byte(rng.Intn(32))
			}
		}
		frames = append(frames, gifenc.Frame{Image: img, DelayCS: 15})
	}
	return frames
}

// The renderers hoist per-pixel work out of their loops; every pixel, and
// every draw from the image's generator, must stay where it was.
func TestRenderMatchesOracle(t *testing.T) {
	scales := []int{97, 128, 255, 256, 399, 400, 599, 600}
	for s := 1; s <= 64; s++ {
		scales = append(scales, s)
	}
	for role := RoleSpacer; role <= RoleAnimation; role++ {
		spec := Spec{Name: "render.gif", Role: role}
		for _, scale := range scales {
			for _, seed := range []uint64{1, 10014} {
				if role == RoleAnimation {
					if scale > 400 {
						continue
					}
					got := renderAnimation(spec, scale, seed, animationFrames)
					want := oracleRenderAnimation(spec, scale, seed, animationFrames)
					for f := range want {
						if !bytes.Equal(got[f].Image.Pixels, want[f].Image.Pixels) {
							t.Fatalf("animation scale %d seed %d: frame %d differs from the oracle", scale, seed, f)
						}
					}
					continue
				}
				got, want := renderStatic(spec, scale, seed), oracleRenderStatic(spec, scale, seed)
				if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pixels, want.Pixels) {
					t.Fatalf("%v scale %d seed %d: pixels differ from the oracle", role, scale, seed)
				}
			}
		}
	}
}
