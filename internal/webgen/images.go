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
			a := drawAnimation(spec, scale, seed, animationFrames)
			s := gifenc.NewAnimationSizer(animationColors, animationFrames, limit)
			buf := make([]byte, a.w)
			for f := range animationFrames {
				if !sizeRows(s, a.frame(f), buf) {
					break
				}
			}
			return s.Len()
		})
		frames := renderAnimation(spec, scale, seed, animationFrames)
		data, err := gifenc.EncodeAnimation(frames, 0)
		if err != nil {
			return nil, fmt.Errorf("webgen: synthesize %s: %w", spec.Name, err)
		}
		return &SynthImage{Spec: spec, Frames: frames, GIF: data}, nil
	}
	scale := searchScale(spec.Target, 600, func(scale, limit int) (int, bool) {
		d := drawStatic(spec, scale, seed)
		s := gifenc.NewSizer(d.colors, limit)
		sizeRows(s, d, make([]byte, d.w))
		return s.Len()
	})
	img := renderStatic(spec, scale, seed)
	data, err := gifenc.Encode(img)
	if err != nil {
		return nil, fmt.Errorf("webgen: synthesize %s: %w", spec.Name, err)
	}
	return &SynthImage{Spec: spec, Image: img, GIF: data}, nil
}

// sizeRows draws d's rows into buf and counts them as s's next image,
// until s reaches its limit; it reports whether s is still below it. A
// probe that overshoots stops drawing where the coder stops reading.
func sizeRows(s *gifenc.Sizer, d drawing, buf []byte) bool {
	s.Image()
	for y := 0; y < d.h; y++ {
		d.row(y, buf)
		if !s.Write(buf) {
			return false
		}
	}
	return true
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

// drawing is an image drawn a row at a time. The rows must be drawn in
// order, top first, each exactly once: the image's random generator is
// drawn from in pixel order.
type drawing struct {
	w, h, colors int
	// row draws row y into row, which is w bytes long, setting every
	// pixel.
	row func(y int, row []byte)
}

// renderStatic draws an image of the given style at a scale.
func renderStatic(spec Spec, scale int, seed uint64) *gifenc.Image {
	d := drawStatic(spec, scale, seed)
	return collect(d, newPalette(d.colors))
}

// collect draws every row of d into a new image with palette pal.
func collect(d drawing, pal []gifenc.Color) *gifenc.Image {
	img := &gifenc.Image{W: d.w, H: d.h, Palette: pal, Pixels: make([]byte, d.w*d.h)}
	for y := 0; y < d.h; y++ {
		d.row(y, img.Pixels[y*d.w:(y+1)*d.w])
	}
	return img
}

// drawStatic returns the drawing of an image of the given style at a
// scale.
func drawStatic(spec Spec, scale int, seed uint64) drawing {
	rng := sim.NewRand(seed ^ nameHash(spec.Name) ^ uint64(scale)<<48)
	switch spec.Role {
	case RoleSpacer:
		// Thin rules and spacers: mostly flat with dithered edges, so
		// size grows steadily with width.
		return drawing{w: 4 * scale, h: 2, colors: 2, row: func(_ int, row []byte) {
			for x := range row {
				row[x] = 0
				if rng.Intn(3) == 0 {
					row[x] = 1
				}
			}
		}}
	case RoleBullet:
		// Small disc/arrow glyphs with a little anti-aliasing noise.
		s := 4 + scale/2
		cx, cy := s/2, s/2
		inner, outer := (s*s)/9, (s*s)/6
		return drawing{w: s, h: s, colors: 4, row: func(y int, row []byte) {
			dy2 := (y - cy) * (y - cy)
			for x := range row {
				var c byte
				switch d2 := (x-cx)*(x-cx) + dy2; {
				case d2 < inner:
					c = 1
				case d2 < outer:
					c = 2
				}
				if rng.Intn(24) == 0 {
					c = byte(rng.Intn(4))
				}
				row[x] = c
			}
		}}
	case RoleBanner:
		// Wide text-as-image: blocky glyph pattern on a flat background,
		// like the paper's "solutions" banner. The glyphs are laid out
		// left to right down the whole height, so the banner is drawn
		// whole and handed out a row at a time.
		w, h := 6*scale, 2+scale/2
		if h < 8 {
			h = 8
		}
		pix := make([]byte, w*h)
		// Background color 1 (the #FC0 of Figure 1), glyph color 0.
		pix[0] = 1
		for n := 1; n < len(pix); n *= 2 {
			copy(pix[n:], pix[:n])
		}
		x := h / 2
		for x+h/2 < w*2/3 {
			glyphW := h/2 + rng.Intn(h/2+1)
			drawGlyph(pix, w, h, x, h/4, glyphW, h/2, rng)
			x += glyphW + h/4
		}
		return drawing{w: w, h: h, colors: 4, row: func(y int, row []byte) { copy(row, pix[y*w:]) }}
	case RoleIcon:
		// Structured art with moderate noise.
		s := 4 + scale
		return drawing{w: s, h: s, colors: 16, row: func(y int, row []byte) {
			y3 := y / 3
			for x := range row {
				c := (x/3 + y3) & 7
				if rng.Intn(6) == 0 {
					c = 8 + rng.Intn(8)
				}
				row[x] = byte(c)
			}
		}}
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
		// x*255/w steps by 255/w, and by one more each time the
		// remainder wraps.
		xStep, xRem := 255/w, 255%w
		return drawing{w: w, h: h, colors: 128, row: func(y int, row []byte) {
			yv := y * 255 / h
			xv, xr := 0, 0
			for x := range row {
				row[x] = byte(((xv+yv)>>2 + rng.Intn(96)) & 127)
				xv += xStep
				if xr += xRem; xr >= w {
					xv, xr = xv+1, xr-w
				}
			}
		}}
	default:
		panic("webgen: drawStatic on animation spec")
	}
}

// newPalette is the palette of a synthesized image with colors entries.
func newPalette(colors int) []gifenc.Color {
	pal := make([]gifenc.Color, colors)
	for i := range pal {
		pal[i] = gifenc.Color{R: byte(17 * i), G: byte(11*i + 64), B: byte(7*i + 128)}
	}
	// Entry 1 is the Figure 1 banner background (#FC0).
	if colors > 1 {
		pal[1] = gifenc.Color{R: 0xFF, G: 0xCC, B: 0x00}
	}
	return pal
}

// drawGlyph draws a blocky letterform-like shape into the w×h pixels,
// clipped to them.
func drawGlyph(pix []byte, imgW, imgH, x0, y0, w, h int, rng *sim.Rand) {
	kind := rng.Intn(4)
	cw, ch := min(w, imgW-x0), min(h, imgH-y0)
	if cw <= 0 || ch <= 0 {
		return
	}
	// bars marks the glyph's left and right quarters of a row.
	bars := func(row []byte) {
		clear(row[:min(w/4, cw)])
		clear(row[min(w-w/4, cw):])
	}
	for y := 0; y < ch; y++ {
		row := pix[(y0+y)*imgW+x0:][:cw]
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

// animationColors is the palette size of a synthesized animation.
const animationColors = 32

// animation is an animation drawn a frame at a time: frames share a base
// image and palette and differ by a moving highlight, like a
// rotating-logo banner ad.
type animation struct {
	w, h, frames int
	base         []byte
	rng          *sim.Rand
}

// drawAnimation draws an animation's base image; its frames follow, in
// order, from frame.
func drawAnimation(spec Spec, scale int, seed uint64, nFrames int) *animation {
	w, h := 4*scale, scale
	if h < 8 {
		h = 8
	}
	a := &animation{w: w, h: h, frames: nFrames, base: make([]byte, w*h),
		rng: sim.NewRand(seed ^ nameHash(spec.Name) ^ 0xA11A)}
	for y := 0; y < h; y++ {
		row := a.base[y*w : y*w+w]
		y4 := y / 4
		for x := range row {
			c := (x/4 + y4) % 12
			if a.rng.Intn(5) == 0 {
				c = 12 + a.rng.Intn(20)
			}
			row[x] = byte(c)
		}
	}
	return a
}

// frame returns the drawing of frame f. Frames share the base's
// generator, so each must be drawn in full, in order, before the next.
func (a *animation) frame(f int) drawing {
	w, rng := a.w, a.rng
	x0 := f * w / a.frames
	x1 := min(x0+w/8, w)
	return drawing{w: w, h: a.h, colors: animationColors, row: func(y int, row []byte) {
		copy(row, a.base[y*w:])
		// The moving highlight band plus a little per-frame sparkle, so
		// consecutive frames are similar but not identical.
		for x := x0; x < x1; x++ {
			row[x] = byte(20 + (x+y)%12)
		}
		for x := range row {
			if rng.Intn(160) == 0 {
				row[x] = byte(rng.Intn(animationColors))
			}
		}
	}}
}

// renderAnimation draws every frame of an animation.
func renderAnimation(spec Spec, scale int, seed uint64, nFrames int) []gifenc.Frame {
	a := drawAnimation(spec, scale, seed, nFrames)
	pal := newPalette(animationColors)
	frames := make([]gifenc.Frame, nFrames)
	for f := range frames {
		frames[f] = gifenc.Frame{Image: collect(a.frame(f), pal), DelayCS: 15}
	}
	return frames
}
