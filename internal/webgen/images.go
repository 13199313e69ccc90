package webgen

import (
	"fmt"
	"math"

	"repro/internal/gifenc"
	"repro/internal/sim"
)

// SynthImage is one synthesized site image with its encodings.
type SynthImage struct {
	Spec   Spec
	Image  *gifenc.Image  // static image (nil for animations)
	Frames []gifenc.Frame // animation frames (nil for statics)
	GIF    []byte         // encoded GIF
}

// Static reports whether the image is a single frame.
func (s *SynthImage) Static() bool { return s.Spec.Role != RoleAnimation }

// animationFrames is the frame count of a synthesized animation.
const animationFrames = 5

// Synthesize builds an image whose encoded GIF size approximates
// spec.Target. Synthesis is deterministic in (spec, seed).
func Synthesize(spec Spec, seed uint64) (*SynthImage, error) {
	if spec.Role == RoleAnimation {
		scale := searchScale(spec.Target, 400, func(scale, limit int) (int, bool) {
			return gifenc.EncodedAnimationLen(renderAnimation(spec, scale, seed, animationFrames), limit)
		})
		frames := renderAnimation(spec, scale, seed, animationFrames)
		data, err := gifenc.EncodeAnimation(frames, 0)
		if err != nil {
			return nil, fmt.Errorf("webgen: synthesize %s: %w", spec.Name, err)
		}
		return &SynthImage{Spec: spec, Frames: frames, GIF: data}, nil
	}
	scale := searchScale(spec.Target, 600, func(scale, limit int) (int, bool) {
		return gifenc.EncodedLen(renderStatic(spec, scale, seed), limit)
	})
	img := renderStatic(spec, scale, seed)
	data, err := gifenc.Encode(img)
	if err != nil {
		return nil, fmt.Errorf("webgen: synthesize %s: %w", spec.Name, err)
	}
	return &SynthImage{Spec: spec, Image: img, GIF: data}, nil
}

// searchScale binary-searches the drawing scales 1..hi for the one whose
// encoding is nearest target bytes (the earliest probe wins a tie);
// encoded size grows monotonically with scale for a fixed style.
// size(scale, limit) reports the encoded length at a scale as a length
// kernel does: exact when below limit, else (limit, false).
//
// Each probe is sized against 2×target, so an overshooting probe costs
// only the code that reaches the cap. That changes no choice. A capped
// probe steers the search down, as its full length would, and lies at
// least target bytes from the goal; an exact one, 1 to 2×target−1 bytes
// long, lies closer. So the nearest exact probe is the nearest probe,
// and only when every probe was capped are they sized in full and
// compared.
func searchScale(target, hi int, size func(scale, limit int) (int, bool)) int {
	type probe struct {
		scale, n int
		exact    bool
	}
	var probes []probe
	for lo := 1; lo <= hi; {
		mid := (lo + hi) / 2
		n, exact := size(mid, 2*target)
		probes = append(probes, probe{mid, n, exact})
		if n < target {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	nearest := func() (scale, dist int) {
		dist = math.MaxInt
		for _, p := range probes {
			if d := abs(p.n - target); p.exact && d < dist {
				scale, dist = p.scale, d
			}
		}
		return scale, dist
	}
	if scale, dist := nearest(); dist < target {
		return scale
	}
	for i, p := range probes {
		if !p.exact {
			probes[i].n, probes[i].exact = size(p.scale, math.MaxInt)
		}
	}
	scale, _ := nearest()
	return scale
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// nameHash mixes an image name into the synthesis seed (FNV-1a) so
// same-length specs do not produce identical pixels.
func nameHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// renderStatic draws an image of the given style at a scale.
func renderStatic(spec Spec, scale int, seed uint64) *gifenc.Image {
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
		inner, outer := (s*s)/9, (s*s)/6
		for y := 0; y < s; y++ {
			row := img.Pixels[y*s : y*s+s]
			dy2 := (y - cy) * (y - cy)
			for x := range row {
				switch d2 := (x-cx)*(x-cx) + dy2; {
				case d2 < inner:
					row[x] = 1
				case d2 < outer:
					row[x] = 2
				}
				if rng.Intn(24) == 0 {
					row[x] = byte(rng.Intn(4))
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
		img.Pixels[0] = 1
		for n := 1; n < len(img.Pixels); n *= 2 {
			copy(img.Pixels[n:], img.Pixels[:n])
		}
		x := h / 2
		for x+h/2 < w*2/3 {
			glyphW := h/2 + rng.Intn(h/2+1)
			drawGlyph(img, x, h/4, glyphW, h/2, rng)
			x += glyphW + h/4
		}
		return img
	case RoleIcon:
		// Structured art with moderate noise.
		s := 4 + scale
		img := newImage(s, s, 16)
		for y := 0; y < s; y++ {
			row := img.Pixels[y*s : y*s+s]
			y3 := y / 3
			for x := range row {
				c := (x/3 + y3) & 7
				if rng.Intn(6) == 0 {
					c = 8 + rng.Intn(8)
				}
				row[x] = byte(c)
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
		// x*255/w steps by 255/w, and by one more each time the
		// remainder wraps.
		xStep, xRem := 255/w, 255%w
		for y := 0; y < h; y++ {
			row := img.Pixels[y*w : y*w+w]
			yv := y * 255 / h
			xv, xr := 0, 0
			for x := range row {
				row[x] = byte(((xv+yv)>>2 + rng.Intn(96)) & 127)
				xv += xStep
				if xr += xRem; xr >= w {
					xv, xr = xv+1, xr-w
				}
			}
		}
		return img
	default:
		panic("webgen: renderStatic on animation spec")
	}
}

func newImage(w, h, colors int) *gifenc.Image {
	img := &gifenc.Image{W: w, H: h, Palette: make([]gifenc.Color, colors), Pixels: make([]byte, w*h)}
	for i := range img.Palette {
		img.Palette[i] = gifenc.Color{R: byte(17 * i), G: byte(11*i + 64), B: byte(7*i + 128)}
	}
	// Entry 1 is the Figure 1 banner background (#FC0).
	if colors > 1 {
		img.Palette[1] = gifenc.Color{R: 0xFF, G: 0xCC, B: 0x00}
	}
	return img
}

// drawGlyph draws a blocky letterform-like shape, clipped to the image.
func drawGlyph(img *gifenc.Image, x0, y0, w, h int, rng *sim.Rand) {
	kind := rng.Intn(4)
	cw, ch := min(w, img.W-x0), min(h, img.H-y0)
	if cw <= 0 || ch <= 0 {
		return
	}
	// bars marks the glyph's left and right quarters of a row.
	bars := func(row []byte) {
		clear(row[:min(w/4, cw)])
		clear(row[min(w-w/4, cw):])
	}
	for y := 0; y < ch; y++ {
		row := img.Pixels[(y0+y)*img.W+x0:][:cw]
		switch kind {
		case 0: // vertical bars
			bars(row)
		case 1: // ring
			if y < h/4 || y >= h-h/4 {
				clear(row)
			} else {
				bars(row)
			}
		case 2: // diagonal: |x*h - y*w| < h*w/4
			d, band := -y*w, h*w/4
			for x := range row {
				if d < band && -d < band {
					row[x] = 0
				}
				d += h
			}
		default: // horizontal bars
			if y < h/4 || (y >= h/2-h/8 && y < h/2+h/8) {
				clear(row)
			}
		}
	}
}

// renderAnimation draws frames that share a palette and differ by a
// moving highlight, like a rotating-logo banner ad.
func renderAnimation(spec Spec, scale int, seed uint64, nFrames int) []gifenc.Frame {
	w, h := 4*scale, scale
	if h < 8 {
		h = 8
	}
	rng := sim.NewRand(seed ^ nameHash(spec.Name) ^ 0xA11A)
	base := newImage(w, h, 32)
	for y := 0; y < h; y++ {
		row := base.Pixels[y*w : y*w+w]
		y4 := y / 4
		for x := range row {
			c := (x/4 + y4) % 12
			if rng.Intn(5) == 0 {
				c = 12 + rng.Intn(20)
			}
			row[x] = byte(c)
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
